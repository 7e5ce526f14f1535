#include "cube/delta.h"

#include "cube/plan.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace x3 {

namespace {

Counter* PatchedCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_delta_views_patched_total",
      "Materialized views patched by folding in delta facts");
  return c;
}

Counter* RecomputedCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_delta_views_recomputed_total",
      "Materialized views fully rebuilt because a delta was unsafe");
  return c;
}

Counter* FactsAppliedCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_delta_facts_applied_total",
      "Delta facts folded into patched views (facts x views)");
  return c;
}

Counter* CellsTouchedCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_delta_cells_touched_total",
      "View cells created or updated by delta maintenance");
  return c;
}

}  // namespace

const char* DeltaActionToString(DeltaAction action) {
  switch (action) {
    case DeltaAction::kMergeWithIds:
      return "merge+ids";
    case DeltaAction::kMerge:
      return "merge";
    case DeltaAction::kRecompute:
      return "recompute";
  }
  return "?";
}

DeltaPlan PlanViewDeltas(const CubeViewStore& store, const FactTable& facts,
                         const CubeLattice& lattice,
                         const LatticeProperties& properties,
                         size_t first_new_fact) {
  DeltaPlan plan;
  plan.first_new_fact = first_new_fact;
  plan.new_facts = facts.size() - first_new_fact;

  std::vector<ValueId> admitted;
  for (const auto& [id, with_fact_ids] : store.MaterializedViews()) {
    ViewDeltaStep step;
    step.cuboid = id;
    if (with_fact_ids) {
      // Fact ids repair any disjointness/coverage violation at roll-up
      // time, so folding new facts in is unconditionally exact.
      step.action = DeltaAction::kMergeWithIds;
      plan.steps.push_back(std::move(step));
      continue;
    }

    // Id-less view: downstream id-less roll-ups trust the properties
    // computed over the OLD facts. The merge is safe only if (a) each
    // present axis was provably disjoint+covered at the view's state
    // and (b) every delta fact keeps it that way (exactly one admitted
    // value). Otherwise the view must be rebuilt — with ids, so it is
    // safe no matter what the batch did to the properties.
    step.action = DeltaAction::kMerge;
    std::vector<size_t> present = lattice.PresentAxes(id);
    std::vector<AxisStateId> states = lattice.Decode(id);
    for (size_t axis : present) {
      internal::LatticeEdge edge{axis, states[axis], 0, /*to_absent=*/true};
      if (!internal::EdgeRollupSafe(properties, edge)) {
        step.action = DeltaAction::kRecompute;
        step.reason = StringPrintf(
            "axis %zu not disjoint+covered at state %u",
            axis, static_cast<unsigned>(states[axis]));
        break;
      }
      for (size_t f = first_new_fact; f < facts.size(); ++f) {
        facts.AdmittedValues(axis, f, states[axis], &admitted);
        if (admitted.size() != 1) {
          step.action = DeltaAction::kRecompute;
          step.reason = StringPrintf(
              "delta fact %zu has %zu values on axis %zu",
              f, admitted.size(), axis);
          break;
        }
      }
      if (step.action == DeltaAction::kRecompute) break;
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

std::string ExplainDeltaPlan(const DeltaPlan& plan,
                             const CubeLattice& lattice) {
  std::string out = StringPrintf("delta plan: %zu new facts from index %zu\n",
                                 plan.new_facts, plan.first_new_fact);
  for (const ViewDeltaStep& step : plan.steps) {
    out += "  ";
    out += lattice.DescribeCuboid(step.cuboid);
    out += ": ";
    out += DeltaActionToString(step.action);
    if (!step.reason.empty()) {
      out += " (";
      out += step.reason;
      out += ")";
    }
    out += "\n";
  }
  return out;
}

Status ApplyViewDeltas(const CubeViewStore& source, CubeViewStore* target,
                       const DeltaPlan& plan, DeltaStats* stats) {
  X3_TRACE_SPAN(&Tracer::Global(), "delta/apply");
  DeltaStats local;
  DeltaStats* st = stats != nullptr ? stats : &local;
  for (const ViewDeltaStep& step : plan.steps) {
    if (step.action == DeltaAction::kRecompute) {
      // Upgrade to an id-carrying view: exact for this batch and immune
      // to whatever future batches do to the axis properties.
      X3_RETURN_IF_ERROR(
          target->Materialize(step.cuboid, /*with_fact_ids=*/true));
      ++st->views_recomputed;
      continue;
    }
    // A reader's cache insert may have evicted the view since the plan
    // was made; the new store then simply lacks it.
    Status cloned = target->CloneViewFrom(source, step.cuboid);
    if (cloned.code() == StatusCode::kNotFound) continue;
    X3_RETURN_IF_ERROR(cloned);
    X3_RETURN_IF_ERROR(target->ApplyDelta(step.cuboid, plan.first_new_fact,
                                          &st->cells_touched));
    ++st->views_patched;
    st->facts_applied += plan.new_facts;
  }
  PatchedCounter()->Increment(st->views_patched);
  RecomputedCounter()->Increment(st->views_recomputed);
  FactsAppliedCounter()->Increment(st->facts_applied);
  CellsTouchedCounter()->Increment(st->cells_touched);
  return Status::OK();
}

}  // namespace x3
