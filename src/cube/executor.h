#ifndef X3_CUBE_EXECUTOR_H_
#define X3_CUBE_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cube/algorithm.h"
#include "cube/plan.h"
#include "util/exec.h"

namespace x3 {

/// Executes a CubePlan for one algorithm family. Implementations live
/// with their algorithm (reference.cc, counter.cc, buc.cc, topdown.cc)
/// and are looked up through the registry — ComputeCube's hot path has
/// no per-algorithm switch.
///
/// Contract: `ctx` is never null; long loops must Poll() it and unwind
/// with kCancelled / kDeadlineExceeded, releasing every budget charge on
/// the way out. Executors read the budget and temp files from `ctx` and
/// record stage timings into ctx->stats().
class CuboidExecutor {
 public:
  virtual ~CuboidExecutor() = default;

  virtual const char* name() const = 0;

  virtual Result<CubeResult> Execute(const CubePlan& plan,
                                     const FactTable& facts,
                                     const CubeLattice& lattice,
                                     const CubeComputeOptions& options,
                                     ExecutionContext* ctx,
                                     CubeComputeStats* stats) const = 0;
};

/// Maps CubeAlgorithm -> executor. One executor instance may serve
/// several algorithms of a family (registered once per algorithm).
class CuboidExecutorRegistry {
 public:
  /// Fails with kAlreadyExists when `algo` is already registered.
  Status Register(CubeAlgorithm algo,
                  std::unique_ptr<CuboidExecutor> executor);

  /// nullptr when `algo` has no registered executor.
  const CuboidExecutor* Find(CubeAlgorithm algo) const;

  /// Registered algorithms in enum order (tests sweep this instead of
  /// hard-coding the nine variants).
  std::vector<CubeAlgorithm> Algorithms() const;

 private:
  std::map<CubeAlgorithm, std::unique_ptr<CuboidExecutor>> executors_;
};

/// The process-wide registry, seeded with all built-in families on first
/// use (explicit seeding, not static initializers: a static library must
/// not rely on the linker keeping registration objects alive).
CuboidExecutorRegistry& GlobalCuboidExecutorRegistry();

/// One schedulable unit of a plan execution: a closure producing one
/// cuboid (or one shared-sort pipe) plus the indices of the tasks that
/// must complete first. Tasks write into disjoint parts of the shared
/// CubeResult (each cuboid's cell map has exactly one producer), so
/// they need no locking of their own; the scheduler's mutex provides
/// the happens-before edge between a producer and its readers.
struct PlanTask {
  /// Must *accumulate* into the passed stats (increment counters, max
  /// the peaks) rather than assign: at parallelism 1 every task shares
  /// the caller's stats object; in parallel each task gets a zeroed
  /// one, absorbed at the join point.
  std::function<Status(CubeComputeStats*)> run;
  /// Indices into the task vector; every dep must be < this task's own
  /// index (dependency order), which RunPlanTasks checks.
  std::vector<size_t> deps;
};

/// Runs `tasks` respecting dependencies, with at most `parallelism`
/// worker threads, and merges per-task stats into `stats`.
///
/// parallelism <= 1 runs every task on the calling thread in index
/// order against `stats` directly, stopping at the first error —
/// byte-for-byte the pre-parallel behavior. parallelism > 1 schedules
/// ready tasks onto a worker pool; on any failure no new tasks are
/// submitted but in-flight ones drain (each task's own unwind releases
/// its budget charges), and the returned status is the first non-OK by
/// task index — not by completion time — so errors are deterministic.
/// Per-task stats are absorbed in task-index order either way.
///
/// `query_id` (usually ctx->query_id() at the call site) is
/// re-established on whichever thread runs each task (ScopedQueryId),
/// so pool workers' trace spans and log lines stay attributed to the
/// query that spawned them; 0 = unattributed.
Status RunPlanTasks(std::vector<PlanTask> tasks, size_t parallelism,
                    CubeComputeStats* stats, uint64_t query_id = 0);

namespace internal {

/// Built-in executor factories (one per family; exposed for white-box
/// tests that want an executor without the global registry).
std::unique_ptr<CuboidExecutor> MakeReferenceExecutor();
std::unique_ptr<CuboidExecutor> MakeCounterExecutor();
std::unique_ptr<CuboidExecutor> MakeBottomUpExecutor();
std::unique_ptr<CuboidExecutor> MakeTopDownExecutor();

}  // namespace internal
}  // namespace x3

#endif  // X3_CUBE_EXECUTOR_H_
