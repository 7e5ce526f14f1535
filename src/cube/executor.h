#ifndef X3_CUBE_EXECUTOR_H_
#define X3_CUBE_EXECUTOR_H_

#include <functional>
#include <vector>

#include "cube/algorithm.h"
#include "cube/plan.h"
#include "util/exec.h"

namespace x3 {

/// One schedulable unit of a plan execution: a closure producing one
/// cuboid (or one shared-sort pipe) plus the indices of the tasks that
/// must complete first. Tasks write into disjoint parts of the shared
/// CubeResult (each cuboid's cell map has exactly one producer), so
/// they need no locking of their own; the scheduler's mutex provides
/// the happens-before edge between a producer and its readers. Tasks
/// count their costs into the execution's ExecutionContext::costs().
struct PlanTask {
  std::function<Status()> run;
  /// Indices into the task vector; every dep must be < this task's own
  /// index (dependency order), which RunPlanTasks checks.
  std::vector<size_t> deps;
};

/// Runs `tasks` respecting dependencies, with at most `parallelism`
/// worker threads.
///
/// parallelism <= 1 runs every task on the calling thread in index
/// order, stopping at the first error — byte-for-byte the pre-parallel
/// behavior. parallelism > 1 schedules ready tasks onto a worker pool;
/// on any failure no new tasks are submitted but in-flight ones drain
/// (each task's own unwind releases its budget charges), and the
/// returned status is the first non-OK by task index — not by
/// completion time — so errors are deterministic.
///
/// `query_id` (usually ctx->query_id() at the call site) is
/// re-established on whichever thread runs each task (ScopedQueryId),
/// so pool workers' trace spans and log lines stay attributed to the
/// query that spawned them; 0 = unattributed.
Status RunPlanTasks(std::vector<PlanTask> tasks, size_t parallelism,
                    uint64_t query_id = 0);

namespace internal {

/// The four algorithm families. Each executes `plan` with its own
/// loops (reference.cc, counter.cc, buc.cc, topdown.cc); ComputeCube
/// picks one with a switch on the plan's algorithm.
///
/// Contract: `ctx` is never null; long loops must Poll() it and unwind
/// with kCancelled / kDeadlineExceeded, releasing every budget charge on
/// the way out. Executors read the budget and temp files from `ctx`,
/// record stage timings into ctx->stats() and count into ctx->costs().
Result<CubeResult> ExecuteReference(const CubePlan& plan,
                                    const FactTable& facts,
                                    const CubeLattice& lattice,
                                    const CubeComputeOptions& options,
                                    ExecutionContext* ctx);
Result<CubeResult> ExecuteCounter(const CubePlan& plan,
                                  const FactTable& facts,
                                  const CubeLattice& lattice,
                                  const CubeComputeOptions& options,
                                  ExecutionContext* ctx);
Result<CubeResult> ExecuteBottomUp(const CubePlan& plan,
                                   const FactTable& facts,
                                   const CubeLattice& lattice,
                                   const CubeComputeOptions& options,
                                   ExecutionContext* ctx);
Result<CubeResult> ExecuteTopDown(const CubePlan& plan,
                                  const FactTable& facts,
                                  const CubeLattice& lattice,
                                  const CubeComputeOptions& options,
                                  ExecutionContext* ctx);

}  // namespace internal
}  // namespace x3

#endif  // X3_CUBE_EXECUTOR_H_
