#include <algorithm>
#include <unordered_map>

#include "cube/executor.h"
#include "cube/group_walk.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace x3 {
namespace internal {
namespace {

/// Estimated bookkeeping per hash cell beyond the key payload.
constexpr size_t kCellOverhead = 64;

/// One pass attempt over a batch of cuboids. Returns true on success;
/// false when `budget` (nullptr = unlimited) was exhausted mid-pass (the
/// partial counters are discarded and the caller splits the batch). Any
/// budget reserved during the pass is released on every path, including
/// a cancellation or deadline unwind. `passes` numbers the passes of
/// one top-level batch, so the "pass/<n>" stage labels are per batch.
Result<bool> CounterPass(const FactTable& facts, const CubeLattice& lattice,
                         const std::vector<CuboidId>& batch,
                         MemoryBudget* budget, ExecutionContext* ctx,
                         CubeResult* result, uint64_t* passes) {
  ScopedStageTimer timer(
      ctx->stats(),
      StringPrintf("pass/%llu", static_cast<unsigned long long>(*passes)),
      ctx->tracer());
  ++*passes;
  ctx->costs().passes.Add();
  ctx->costs().base_scans.Add();
  size_t reserved = 0;
  std::vector<CellMap> counters(batch.size());
  std::vector<GroupWalk> walks;
  walks.reserve(batch.size());
  for (CuboidId cuboid : batch) {
    walks.emplace_back(lattice, cuboid, UncoveredAxis::kDropFact);
  }
  // Per-fact cache of admitted value lists, one per (axis, state): the
  // single-scan counter recomputes nothing across the (up to 2^d)
  // cuboids it feeds from one fact.
  std::vector<std::vector<std::vector<ValueId>>> cache(lattice.num_axes());
  for (size_t a = 0; a < lattice.num_axes(); ++a) {
    cache[a].resize(lattice.axis(a).num_states());
  }
  bool overflow = false;
  Status interrupted = Status::OK();
  for (size_t f = 0; f < facts.size() && !overflow; ++f) {
    interrupted = ctx->Poll();
    if (!interrupted.ok()) break;
    int64_t measure = facts.measure(f);
    for (size_t a = 0; a < lattice.num_axes(); ++a) {
      for (AxisStateId s = 0; s < lattice.axis(a).num_states(); ++s) {
        if (!lattice.axis(a).state(s).grouping_present()) continue;
        facts.AdmittedValues(a, f, s, &cache[a][s]);
      }
    }
    for (size_t b = 0; b < batch.size() && !overflow; ++b) {
      walks[b].ForEachGroup(cache, [&](const GroupKey& key) {
        if (overflow) return;
        auto it = counters[b].find(key);
        if (it == counters[b].end()) {
          if (budget != nullptr) {
            size_t charge = key.size() + kCellOverhead;
            if (!budget->Reserve(charge).ok()) {
              overflow = true;
              return;
            }
            reserved += charge;
          }
          it = counters[b].emplace(key, AggregateState{}).first;
        }
        it->second.Update(measure);
      });
    }
  }
  if (budget != nullptr) budget->Release(reserved);
  X3_RETURN_IF_ERROR(interrupted);
  if (overflow) return false;
  // Merge into the result ("write the counters out").
  for (size_t b = 0; b < batch.size(); ++b) {
    auto* out = result->mutable_cuboid(batch[b]);
    timer.AddRows(counters[b].size());
    for (auto& [key, state] : counters[b]) {
      (*out)[key].Merge(state);
    }
  }
  return true;
}

/// Computes `batch`, splitting recursively on memory exhaustion — the
/// multi-pass behaviour the paper reports ("at 6 axes, we had to do 2
/// passes, at 7 axes we needed 5 passes", §4.6).
Status CounterBatch(const FactTable& facts, const CubeLattice& lattice,
                    const std::vector<CuboidId>& batch, ExecutionContext* ctx,
                    CubeResult* result, uint64_t* passes) {
  if (batch.empty()) return Status::OK();
  X3_ASSIGN_OR_RETURN(bool ok, CounterPass(facts, lattice, batch,
                                           ctx->budget(), ctx, result,
                                           passes));
  if (ok) return Status::OK();
  if (batch.size() == 1) {
    // A single cuboid that alone exceeds the budget: there is nothing
    // left to split. Run it with forced overshoot (the real system
    // would thrash the VM the same way).
    X3_LOG(Warning) << "COUNTER: cuboid " << batch[0]
                    << " alone exceeds the memory budget; forcing";
    X3_ASSIGN_OR_RETURN(bool forced_ok,
                        CounterPass(facts, lattice, batch, /*budget=*/nullptr,
                                    ctx, result, passes));
    X3_CHECK(forced_ok);
    return Status::OK();
  }
  size_t mid = batch.size() / 2;
  std::vector<CuboidId> left(batch.begin(), batch.begin() + mid);
  std::vector<CuboidId> right(batch.begin() + mid, batch.end());
  X3_RETURN_IF_ERROR(CounterBatch(facts, lattice, left, ctx, result, passes));
  return CounterBatch(facts, lattice, right, ctx, result, passes);
}

}  // namespace

/// Counter-based family (§3.3): all cuboids off one shared scan, split
/// into multiple passes when the counters exceed the budget. The plan's
/// kHashAggregate steps are the batch list.
Result<CubeResult> ExecuteCounter(const CubePlan& plan,
                                  const FactTable& facts,
                                  const CubeLattice& lattice,
                                  const CubeComputeOptions& options,
                                  ExecutionContext* ctx) {
  CubeResult result(lattice.num_cuboids(), options.aggregate);
  std::vector<CuboidId> all;
  all.reserve(plan.steps.size());
  for (const CuboidPlanStep& step : plan.steps) {
    all.push_back(step.cuboid);
  }
  // Round-robin the cuboids into one batch per worker, each an
  // independent task; at parallelism 1 that is one batch of every
  // cuboid, run on the calling thread. Batches write disjoint cuboid
  // maps of the shared result, and the shared atomic budget still caps
  // the sum of all counters — a batch that overflows splits itself into
  // more passes, so cell contents stay exact (the pass *structure* may
  // differ between parallelisms; the differential tests compare cells,
  // which are identical).
  const size_t num_batches = std::min(options.parallelism, all.size());
  std::vector<std::vector<CuboidId>> batches(num_batches);
  for (size_t i = 0; i < all.size(); ++i) {
    batches[i % num_batches].push_back(all[i]);
  }
  std::vector<PlanTask> tasks;
  tasks.reserve(num_batches);
  for (std::vector<CuboidId>& batch : batches) {
    tasks.push_back(PlanTask{
        [&, batch = std::move(batch)]() {
          uint64_t passes = 0;
          return CounterBatch(facts, lattice, batch, ctx, &result, &passes);
        },
        {}});
  }
  X3_RETURN_IF_ERROR(
      RunPlanTasks(std::move(tasks), options.parallelism, ctx->query_id()));
  return result;
}

}  // namespace internal
}  // namespace x3
