#include "cube/executor.h"
#include "cube/group_walk.h"
#include "util/string_util.h"

namespace x3 {
namespace internal {

/// The correctness oracle: computes every cuboid independently by
/// scanning all facts and enumerating each fact's groups. O(cuboids *
/// facts) with no memory bound; used by tests to validate every other
/// algorithm and by small examples.
Result<CubeResult> ExecuteReference(const CubePlan& plan,
                                    const FactTable& facts,
                                    const CubeLattice& lattice,
                                    const CubeComputeOptions& options,
                                    ExecutionContext* ctx) {
  CubeResult result(lattice.num_cuboids(), options.aggregate);
  // Every cuboid is independent here, so each plan step becomes one
  // dependency-free task. A task owns its scratch space and writes only
  // its own cuboid's cell map, so tasks share nothing mutable but the
  // (atomic) budget and cost counts and the (synchronized) stats sink.
  std::vector<PlanTask> tasks;
  tasks.reserve(plan.steps.size());
  for (const CuboidPlanStep& step : plan.steps) {
    tasks.push_back(PlanTask{
        [&, step]() -> Status {
          ScopedStageTimer timer(
              ctx->stats(),
              StringPrintf("cuboid/%llu",
                           static_cast<unsigned long long>(step.cuboid)),
              ctx->tracer());
          ctx->costs().base_scans.Add();
          GroupWalk walk(lattice, step.cuboid, UncoveredAxis::kDropFact);
          auto* cells = result.mutable_cuboid(step.cuboid);
          for (size_t f = 0; f < facts.size(); ++f) {
            X3_RETURN_IF_ERROR(ctx->Poll());
            int64_t measure = facts.measure(f);
            walk.ForEachGroup(facts, f, [&](const GroupKey& key) {
              (*cells)[key].Update(measure);
            });
          }
          timer.AddRows(result.cuboid(step.cuboid).size());
          return Status::OK();
        },
        {}});
  }
  X3_RETURN_IF_ERROR(
      RunPlanTasks(std::move(tasks), options.parallelism, ctx->query_id()));
  return result;
}

}  // namespace internal
}  // namespace x3
