#include "cube/executor.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/query_id.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace x3 {

namespace {

Counter& PlanTasksCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_cube_plan_tasks_total",
      "Plan tasks (pipes, cuboid steps) executed by the cube executor");
  return *c;
}

}  // namespace

Status RunPlanTasks(std::vector<PlanTask> tasks, size_t parallelism,
                    uint64_t query_id) {
  const size_t n = tasks.size();
  if (parallelism <= 1 || n <= 1) {
    // The sequential path: index order, stop at the first error. This
    // is exactly the pre-parallel execution.
    for (PlanTask& task : tasks) {
      PlanTasksCounter().Increment();
      X3_RETURN_IF_ERROR(task.run());
    }
    return Status::OK();
  }

  // Dependency bookkeeping. Steps are in dependency order, so every dep
  // points at a lower index — checked here, relied on below.
  std::vector<size_t> blockers(n, 0);
  std::vector<std::vector<size_t>> dependents(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d : tasks[i].deps) {
      X3_CHECK(d < i) << "plan task " << i << " depends on later task " << d;
      dependents[d].push_back(i);
    }
    blockers[i] = tasks[i].deps.size();
  }

  std::vector<Status> statuses(n, Status::OK());

  ThreadPool pool(std::min(parallelism, n));
  // Scheduler lock. Local, so GUARDED_BY cannot name it (the analysis
  // only tracks members/globals); the rank still orders it below the
  // pool lock — Submit from the completion handler is the one legal
  // nesting direction.
  Mutex mu{lock_rank::kExecutorScheduler};
  CondVar cv;
  size_t completed = 0;
  size_t inflight = 0;
  bool failed = false;

  // Submits task i (mu must be held). On completion the worker, under
  // mu, unblocks dependents — that lock hand-off is the happens-before
  // edge making a producer cuboid's cells visible to its roll-up
  // readers. After a failure nothing new is submitted, but tasks
  // already running drain normally (their own unwind releases every
  // budget charge they hold).
  std::function<void(size_t)> submit = [&](size_t i) {
    ++inflight;
    pool.Submit([&, i, query_id] {
      // Pool workers run many queries' tasks over their lifetime; the
      // scope re-attributes this one's spans/logs to its query.
      ScopedQueryId qid_scope(query_id);
      PlanTasksCounter().Increment();
      Status s = tasks[i].run();
      MutexLock lock(&mu);
      statuses[i] = std::move(s);
      ++completed;
      --inflight;
      if (!statuses[i].ok()) failed = true;
      if (!failed) {
        for (size_t d : dependents[i]) {
          if (--blockers[d] == 0) submit(d);
        }
      }
      cv.NotifyAll();
    });
  };

  {
    MutexLock lock(&mu);
    for (size_t i = 0; i < n; ++i) {
      if (blockers[i] == 0) submit(i);
    }
    cv.Wait(&mu, [&] {
      return inflight == 0 && (failed || completed == n);
    });
  }

  // Deterministic error selection: task-index order, never completion
  // order, so parallel runs report the same first error as each other
  // (unrun tasks have an OK status).
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return statuses[i];
  }
  return Status::OK();
}

}  // namespace x3
