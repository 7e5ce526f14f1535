#include "cube/plan.h"

#include <algorithm>
#include <unordered_map>

#include "cube/algorithm.h"
#include "cube/cube_result.h"
#include "util/exec.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace x3 {
namespace internal {

std::optional<LatticeEdge> EdgeBetween(const CubeLattice& lattice, CuboidId p,
                                       CuboidId c) {
  std::optional<LatticeEdge> info;
  for (size_t a = 0; a < lattice.num_axes(); ++a) {
    AxisStateId sp = lattice.StateOf(p, a);
    AxisStateId sc = lattice.StateOf(c, a);
    if (sp == sc) continue;
    if (info.has_value()) return std::nullopt;  // differs in 2+ axes
    info = LatticeEdge{a, sp, sc,
                       !lattice.axis(a).state(sc).grouping_present()};
  }
  return info;
}

bool EdgeRollupSafe(const LatticeProperties& props, const LatticeEdge& edge) {
  if (edge.to_absent) {
    const SummarizabilityFlags& f = props.At(edge.axis, edge.from_state);
    return f.disjoint && f.covered;
  }
  return props.At(edge.axis, edge.from_state).covered &&
         props.At(edge.axis, edge.to_state).disjoint;
}

}  // namespace internal

namespace {

using internal::EdgeBetween;
using internal::EdgeRollupSafe;
using internal::LatticeEdge;

/// Signature of a cuboid: its present axes with their states.
std::vector<std::pair<size_t, AxisStateId>> SignatureOf(
    const CubeLattice& lattice, CuboidId cuboid) {
  std::vector<std::pair<size_t, AxisStateId>> sig;
  for (size_t a = 0; a < lattice.num_axes(); ++a) {
    AxisStateId s = lattice.StateOf(cuboid, a);
    if (lattice.axis(a).state(s).grouping_present()) {
      sig.emplace_back(a, s);
    }
  }
  return sig;
}

/// The cuboid obtained by keeping the first `k` signature entries and
/// setting every other axis to its absent state; nullopt when an axis
/// outside the prefix has no absent state.
std::optional<CuboidId> PrefixCuboid(
    const CubeLattice& lattice,
    const std::vector<std::pair<size_t, AxisStateId>>& signature, size_t k) {
  std::vector<AxisStateId> states(lattice.num_axes());
  std::vector<bool> in_prefix(lattice.num_axes(), false);
  for (size_t i = 0; i < k; ++i) {
    states[signature[i].first] = signature[i].second;
    in_prefix[signature[i].first] = true;
  }
  for (size_t a = 0; a < lattice.num_axes(); ++a) {
    if (in_prefix[a]) continue;
    std::optional<AxisStateId> absent = lattice.axis(a).absent_state();
    if (!absent.has_value()) return std::nullopt;
    states[a] = *absent;
  }
  return lattice.Encode(states);
}

/// Greedy pipe cover: repeatedly take the largest uncovered cuboid and
/// let one sort in a well-chosen axis order serve a whole chain of
/// prefix cuboids. This is the PipeSort/MemoryCube-style sort sharing
/// that disjointness unlocks (one record per fact, prefix aggregation
/// from base).
///
/// The axis order within a pipe matters: prefixes of the sort order are
/// the cuboids the pipe computes for free, so we build the order
/// back-to-front, at each level preferring to drop an axis whose
/// remaining subset is still uncovered (a greedy symmetric-chain
/// decomposition; for a d-dimensional LND lattice this yields about
/// C(d, d/2) pipes instead of one sort per cuboid).
std::vector<CubePlanPipe> BuildPipes(const CubeLattice& lattice) {
  std::vector<CuboidId> order(lattice.num_cuboids());
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) order[c] = c;
  std::stable_sort(order.begin(), order.end(), [&](CuboidId a, CuboidId b) {
    return SignatureOf(lattice, a).size() > SignatureOf(lattice, b).size();
  });
  std::vector<bool> covered(lattice.num_cuboids(), false);
  std::vector<CubePlanPipe> pipes;
  for (CuboidId c : order) {
    if (covered[c]) continue;
    std::vector<std::pair<size_t, AxisStateId>> remaining =
        SignatureOf(lattice, c);
    // Build the sort order back to front: the axis dropped first comes
    // last in the sort order.
    std::vector<std::pair<size_t, AxisStateId>> sort_order(remaining.size());
    size_t fill = remaining.size();
    while (!remaining.empty()) {
      size_t choice = 0;
      for (size_t i = 0; i < remaining.size(); ++i) {
        std::vector<std::pair<size_t, AxisStateId>> without = remaining;
        without.erase(without.begin() + static_cast<ptrdiff_t>(i));
        // Does dropping axis i leave an uncovered, constructible cuboid?
        std::optional<CuboidId> sub =
            PrefixCuboid(lattice, without, without.size());
        if (sub.has_value() && !covered[*sub]) {
          choice = i;
          break;
        }
      }
      sort_order[--fill] = remaining[choice];
      remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(choice));
    }
    CubePlanPipe pipe;
    pipe.sort_order = std::move(sort_order);
    for (size_t k = pipe.sort_order.size() + 1; k-- > 0;) {
      std::optional<CuboidId> prefix =
          PrefixCuboid(lattice, pipe.sort_order, k);
      if (!prefix.has_value()) continue;
      if (k < pipe.sort_order.size() && covered[*prefix]) continue;
      covered[*prefix] = true;
      pipe.covered.emplace_back(k, *prefix);
    }
    pipes.push_back(std::move(pipe));
  }
  return pipes;
}

/// One step per cuboid in natural order, all with the same kind and
/// safety — the shape of the scan-everything families.
void UniformSteps(const CubeLattice& lattice, CuboidPlanStep::Kind kind,
                  CubePlan* plan) {
  plan->steps.reserve(lattice.num_cuboids());
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    CuboidPlanStep step;
    step.cuboid = c;
    step.kind = kind;
    plan->steps.push_back(step);
  }
}

void PlanBottomUp(CubeAlgorithm algo, const CubeLattice& lattice,
                  const LatticeProperties& properties, CubePlan* plan) {
  plan->steps.reserve(lattice.num_cuboids());
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    CuboidPlanStep step;
    step.cuboid = c;
    step.kind = CuboidPlanStep::Kind::kPartitionRecurse;
    // BUCOPT takes the no-duplicate-tracking fast path at every present
    // axis; the cuboid is exact only where the property map proves all
    // of them disjoint. BUC and BUCCUST never guess.
    step.safe = algo != CubeAlgorithm::kBUCOpt ||
                properties.ForCuboid(lattice, c).disjoint;
    plan->steps.push_back(step);
  }
}

void PlanSharedSort(const CubeLattice& lattice,
                    const LatticeProperties& properties, CubePlan* plan) {
  plan->pipes = BuildPipes(lattice);
  for (size_t p = 0; p < plan->pipes.size(); ++p) {
    for (const auto& [prefix_len, cuboid] : plan->pipes[p].covered) {
      (void)prefix_len;
      CuboidPlanStep step;
      step.cuboid = cuboid;
      step.kind = CuboidPlanStep::Kind::kSharedSort;
      step.source = static_cast<CuboidId>(p);
      // One record per fact (first admitted value only): exact only
      // where every present axis is disjoint.
      step.safe = properties.ForCuboid(lattice, cuboid).disjoint;
      plan->steps.push_back(step);
    }
  }
}

void PlanRollupAll(const CubeLattice& lattice,
                   const LatticeProperties& properties, CubePlan* plan) {
  std::vector<CuboidId> topo = lattice.TopoOrder();
  X3_CHECK(!topo.empty() && topo.front() == lattice.FinestCuboid());
  // Safety is transitive: a roll-up is only exact when its edge is safe
  // AND its source cuboid was exact.
  std::vector<bool> safe(lattice.num_cuboids(), false);
  plan->steps.reserve(topo.size());
  {
    CuboidPlanStep step;
    step.cuboid = topo.front();
    step.kind = CuboidPlanStep::Kind::kBaseNoIds;
    step.safe = properties.ForCuboid(lattice, step.cuboid).disjoint;
    safe[step.cuboid] = step.safe;
    plan->steps.push_back(step);
  }
  for (size_t i = 1; i < topo.size(); ++i) {
    CuboidId c = topo[i];
    std::vector<CuboidId> parents = lattice.LessRelaxedNeighbors(c);
    X3_CHECK(!parents.empty());
    CuboidId p = parents.front();
    std::optional<LatticeEdge> edge = EdgeBetween(lattice, p, c);
    X3_CHECK(edge.has_value());
    CuboidPlanStep step;
    step.cuboid = c;
    step.kind = edge->to_absent ? CuboidPlanStep::Kind::kRollup
                                : CuboidPlanStep::Kind::kCopy;
    step.source = p;
    step.safe = safe[p] && EdgeRollupSafe(properties, *edge);
    safe[c] = step.safe;
    plan->steps.push_back(step);
  }
}

void PlanCustom(const CubeLattice& lattice,
                const LatticeProperties& properties, CubePlan* plan) {
  std::vector<CuboidId> topo = lattice.TopoOrder();
  plan->steps.reserve(topo.size());
  for (size_t i = 0; i < topo.size(); ++i) {
    CuboidId c = topo[i];
    CuboidPlanStep step;
    step.cuboid = c;
    bool rolled = false;
    if (i > 0) {
      for (CuboidId p : lattice.LessRelaxedNeighbors(c)) {
        std::optional<LatticeEdge> edge = EdgeBetween(lattice, p, c);
        if (!edge.has_value()) continue;
        if (EdgeRollupSafe(properties, *edge)) {
          step.kind = edge->to_absent ? CuboidPlanStep::Kind::kRollup
                                      : CuboidPlanStep::Kind::kCopy;
          step.source = p;
          rolled = true;
          break;
        }
      }
    }
    if (!rolled) {
      step.kind = properties.ForCuboid(lattice, c).disjoint
                      ? CuboidPlanStep::Kind::kBaseNoIds
                      : CuboidPlanStep::Kind::kBaseWithIds;
    }
    plan->steps.push_back(step);
  }
}

/// The step line shared by ExplainCubePlan and ExplainCubePlanWithActuals.
/// The per-kind phrases are golden-tested; change them deliberately.
/// A non-empty `annotation` (EXPLAIN ANALYZE actuals) is appended
/// before the newline.
std::string RenderStep(const CuboidPlanStep& step, const CubeLattice& lattice,
                       const std::string& annotation = {}) {
  std::string out =
      StringPrintf("cuboid %4llu %s  <- ",
                   static_cast<unsigned long long>(step.cuboid),
                   lattice.DescribeCuboid(step.cuboid).c_str());
  switch (step.kind) {
    case CuboidPlanStep::Kind::kBaseWithIds:
      out += "base scan + sort (fact ids retained: disjointness unproven)";
      break;
    case CuboidPlanStep::Kind::kBaseNoIds:
      out += "base scan + sort (no fact ids: disjoint)";
      break;
    case CuboidPlanStep::Kind::kRollup:
      out += StringPrintf(
          "roll-up from cuboid %llu (dropped axis disjoint+covered)",
          static_cast<unsigned long long>(step.source));
      break;
    case CuboidPlanStep::Kind::kCopy:
      out += StringPrintf(
          "copy of cuboid %llu (structural edge with equal bindings)",
          static_cast<unsigned long long>(step.source));
      break;
    case CuboidPlanStep::Kind::kHashAggregate:
      out += "hash aggregation over the shared base scan";
      break;
    case CuboidPlanStep::Kind::kPartitionRecurse:
      out += "bottom-up partition recursion";
      break;
    case CuboidPlanStep::Kind::kSharedSort:
      out += StringPrintf("prefix aggregation of shared-sort pipe %llu",
                          static_cast<unsigned long long>(step.source));
      break;
  }
  if (!step.safe) out += "  [UNSAFE: assumption unproven here]";
  if (!annotation.empty()) out += "  " + annotation;
  out += "\n";
  return out;
}

/// The pipe header line shared by both plan renderers (no newline).
std::string RenderPipe(size_t p, const CubePlanPipe& pipe,
                       const CubeLattice& lattice) {
  std::string out = StringPrintf("pipe %4zu sort order:", p);
  for (const auto& [axis, state] : pipe.sort_order) {
    out += StringPrintf(" %s@%u", lattice.axis(axis).name().c_str(),
                        static_cast<unsigned>(state));
  }
  out += StringPrintf("  (serves %zu cuboids)", pipe.covered.size());
  return out;
}

/// "[actual 1.2 ms, rows 34, spilled 56 bytes]" for one executed step,
/// from the stage labels the executors record into the sink. Empty when
/// the step's stage was never recorded (a sink from a different run).
std::string StepActuals(const CuboidPlanStep& step, const StatsSink& stats,
                        const CubeResult& result) {
  const unsigned long long cells =
      static_cast<unsigned long long>(result.cuboid(step.cuboid).size());
  switch (step.kind) {
    case CuboidPlanStep::Kind::kBaseWithIds:
    case CuboidPlanStep::Kind::kBaseNoIds:
    case CuboidPlanStep::Kind::kRollup:
    case CuboidPlanStep::Kind::kCopy: {
      std::optional<StageTiming> t = stats.Find(
          StringPrintf("cuboid/%llu",
                       static_cast<unsigned long long>(step.cuboid)));
      if (!t.has_value()) return {};
      std::string out =
          StringPrintf("[actual %.3f ms, rows %llu", t->seconds * 1e3, cells);
      if (t->bytes > 0) {
        out += StringPrintf(", spilled %llu bytes",
                            static_cast<unsigned long long>(t->bytes));
      }
      return out + "]";
    }
    case CuboidPlanStep::Kind::kSharedSort: {
      // Cells come from the pipe's shared sort; point at its timing.
      std::optional<StageTiming> t = stats.Find(
          StringPrintf("pipe/%llu",
                       static_cast<unsigned long long>(step.source)));
      if (!t.has_value()) return {};
      return StringPrintf("[rows %llu, from pipe %llu: actual %.3f ms]",
                          cells,
                          static_cast<unsigned long long>(step.source),
                          t->seconds * 1e3);
    }
    case CuboidPlanStep::Kind::kHashAggregate: {
      // The reference executor times each cuboid individually; prefer
      // that exact stage when present.
      std::optional<StageTiming> per_cuboid = stats.Find(
          StringPrintf("cuboid/%llu",
                       static_cast<unsigned long long>(step.cuboid)));
      if (per_cuboid.has_value()) {
        return StringPrintf("[actual %.3f ms, rows %llu]",
                            per_cuboid->seconds * 1e3, cells);
      }
      // The counter family's passes are shared across cuboids; report
      // the shared scan cost beside each cuboid's own row count.
      size_t passes = stats.CountStages("pass");
      if (passes == 0) return {};
      return StringPrintf(
          "[rows %llu, shared scan %.3f ms across %zu pass(es)]", cells,
          stats.TotalSeconds("pass") * 1e3, passes);
    }
    case CuboidPlanStep::Kind::kPartitionRecurse: {
      // One recursive walk emits every cuboid; its total is the shared
      // cost beside each cuboid's own row count.
      std::optional<StageTiming> t = stats.Find("partition-walk");
      if (!t.has_value()) return {};
      return StringPrintf("[rows %llu, partition walk %.3f ms total]", cells,
                          t->seconds * 1e3);
    }
  }
  return {};
}

}  // namespace

const char* CuboidPlanStepKindToString(CuboidPlanStep::Kind kind) {
  switch (kind) {
    case CuboidPlanStep::Kind::kBaseWithIds:
      return "base+ids";
    case CuboidPlanStep::Kind::kBaseNoIds:
      return "base";
    case CuboidPlanStep::Kind::kRollup:
      return "rollup";
    case CuboidPlanStep::Kind::kCopy:
      return "copy";
    case CuboidPlanStep::Kind::kHashAggregate:
      return "hash";
    case CuboidPlanStep::Kind::kPartitionRecurse:
      return "partition";
    case CuboidPlanStep::Kind::kSharedSort:
      return "shared-sort";
  }
  return "?";
}

CubePlan BuildCubePlan(CubeAlgorithm algo, const CubeLattice& lattice,
                       const LatticeProperties& properties) {
  CubePlan plan;
  plan.algorithm = algo;
  // Planning-time dispatch; execution dispatches again on the plan's
  // algorithm, in ComputeCube's switch.
  switch (algo) {
    case CubeAlgorithm::kReference:
    case CubeAlgorithm::kCounter:
      UniformSteps(lattice, CuboidPlanStep::Kind::kHashAggregate, &plan);
      break;
    case CubeAlgorithm::kBUC:
    case CubeAlgorithm::kBUCOpt:
    case CubeAlgorithm::kBUCCust:
      PlanBottomUp(algo, lattice, properties, &plan);
      break;
    case CubeAlgorithm::kTD:
      UniformSteps(lattice, CuboidPlanStep::Kind::kBaseWithIds, &plan);
      break;
    case CubeAlgorithm::kTDOpt:
      PlanSharedSort(lattice, properties, &plan);
      break;
    case CubeAlgorithm::kTDOptAll:
      PlanRollupAll(lattice, properties, &plan);
      break;
    case CubeAlgorithm::kTDCust:
      PlanCustom(lattice, properties, &plan);
      break;
  }
  for (const CuboidPlanStep& step : plan.steps) {
    if (!step.safe) ++plan.unsafe_steps;
  }
  return plan;
}

std::vector<std::vector<size_t>> PlanStepDependencies(const CubePlan& plan) {
  const size_t num_pipes = plan.pipes.size();
  std::vector<std::vector<size_t>> deps(num_pipes + plan.steps.size());
  // Producer task of each cuboid, filled as steps are walked; steps are
  // in dependency order, so a reader always finds its source here.
  std::unordered_map<CuboidId, size_t> producer;
  producer.reserve(plan.steps.size());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const CuboidPlanStep& step = plan.steps[i];
    const size_t task = num_pipes + i;
    switch (step.kind) {
      case CuboidPlanStep::Kind::kSharedSort:
        X3_CHECK(static_cast<size_t>(step.source) < num_pipes);
        deps[task].push_back(static_cast<size_t>(step.source));
        break;
      case CuboidPlanStep::Kind::kRollup:
      case CuboidPlanStep::Kind::kCopy: {
        auto it = producer.find(step.source);
        X3_CHECK(it != producer.end());
        deps[task].push_back(it->second);
        break;
      }
      default:
        break;
    }
    producer[step.cuboid] = task;
  }
  return deps;
}

std::string ExplainCubePlan(const CubePlan& plan,
                            const CubeLattice& lattice) {
  std::string out = StringPrintf(
      "%s: %zu cuboid(s), %zu pipe(s), %zu unsafe step(s)\n",
      CubeAlgorithmToString(plan.algorithm), plan.steps.size(),
      plan.pipes.size(), plan.unsafe_steps);
  for (size_t p = 0; p < plan.pipes.size(); ++p) {
    out += RenderPipe(p, plan.pipes[p], lattice);
    out += "\n";
  }
  for (const CuboidPlanStep& step : plan.steps) {
    out += RenderStep(step, lattice);
  }
  return out;
}

std::string ExplainCubePlanWithActuals(const CubePlan& plan,
                                       const CubeLattice& lattice,
                                       const StatsSink& stats,
                                       const CubeResult& result) {
  std::string out = StringPrintf(
      "%s: %zu cuboid(s), %zu pipe(s), %zu unsafe step(s)",
      CubeAlgorithmToString(plan.algorithm), plan.steps.size(),
      plan.pipes.size(), plan.unsafe_steps);
  std::optional<StageTiming> plan_t = stats.Find("plan");
  std::optional<StageTiming> compute_t = stats.Find("compute");
  if (compute_t.has_value()) {
    out += StringPrintf(
        "; plan %.3f ms, compute %.3f ms, %llu cells",
        (plan_t.has_value() ? plan_t->seconds : 0.0) * 1e3,
        compute_t->seconds * 1e3,
        static_cast<unsigned long long>(result.TotalCells()));
  }
  out += "\n";
  for (size_t p = 0; p < plan.pipes.size(); ++p) {
    out += RenderPipe(p, plan.pipes[p], lattice);
    std::optional<StageTiming> t =
        stats.Find(StringPrintf("pipe/%zu", p));
    if (t.has_value()) {
      out += StringPrintf("  [actual %.3f ms, rows %llu",
                          t->seconds * 1e3,
                          static_cast<unsigned long long>(t->rows));
      if (t->bytes > 0) {
        out += StringPrintf(", spilled %llu bytes",
                            static_cast<unsigned long long>(t->bytes));
      }
      out += "]";
    }
    out += "\n";
  }
  for (const CuboidPlanStep& step : plan.steps) {
    out += RenderStep(step, lattice, StepActuals(step, stats, result));
  }
  return out;
}

}  // namespace x3
