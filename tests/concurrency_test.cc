// Concurrency unit tests for the machinery under the parallel cube
// executor: the annotated Mutex/MutexLock/CondVar primitives with
// their debug lock-order detector, MemoryBudget's atomic hard cap,
// StatsSink's synchronized Record/Append, ThreadPool/TaskGroup
// scheduling and draining, and RunPlanTasks' dependency ordering,
// failure semantics and cost counting. These run in the
// ThreadSanitizer CI lane (label "tsan"), so a data race here is a
// build failure, not a flake.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "cube/executor.h"
#include "util/exec.h"
#include "util/memory_budget.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace x3 {
namespace {

// --- Mutex / MutexLock / CondVar primitives ---

TEST(MutexTest, LockUnlockAndTryLock) {
  Mutex mu;
  mu.Lock();
  EXPECT_FALSE(mu.TryLock());  // already held by this test's thread
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutexLockExcludesConcurrentCriticalSections) {
  Mutex mu;
  int counter = 0;  // int (not atomic): only the lock protects it
  constexpr int kThreads = 8;
  constexpr int kRounds = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kRounds);
}

TEST(CondVarTest, PredicateWaitSeesNotifiedState) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    cv.Wait(&mu, [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(MutexRankTest, AscendingRankNestingIsAllowed) {
  // The real nesting the engine relies on: executor scheduler (100)
  // inside nothing, pool (250) inside scheduler, metrics (550) inside
  // anything. Strictly ascending ranks must pass the detector.
  Mutex low(lock_rank::kExecutorScheduler);
  Mutex mid(lock_rank::kThreadPool);
  Mutex high(lock_rank::kMetricRegistry);
  MutexLock a(&low);
  MutexLock b(&mid);
  MutexLock c(&high);
}

TEST(MutexRankTest, ServerRanksSitBelowEngineLocks) {
  // The serving layer's chain: session bookkeeping, then a shape's
  // build latch, then the cuboid cache, then a ticket, and from any of
  // them into the view store (cache eviction) and the pool — ranks
  // strictly increasing all the way down.
  Mutex session(lock_rank::kServerSession);
  Mutex shape(lock_rank::kServerShape);
  Mutex cache(lock_rank::kServerCache);
  Mutex ticket(lock_rank::kServerTicket);
  Mutex views(lock_rank::kViewStore);
  Mutex pool(lock_rank::kThreadPool);
  MutexLock a(&session);
  MutexLock b(&shape);
  MutexLock c(&cache);
  MutexLock d(&ticket);
  MutexLock e(&views);
  MutexLock f(&pool);
}

TEST(MutexRankTest, UnrankedMutexesNestFreely) {
  Mutex a;
  Mutex b;
  MutexLock la(&a);
  MutexLock lb(&b);
}

TEST(MutexRankTest, RanksResetBetweenCriticalSections) {
  // Sequential (non-nested) acquisition in any order is fine; only
  // *held* locks constrain the next acquisition.
  Mutex low(lock_rank::kViewStore);
  Mutex high(lock_rank::kTracer);
  { MutexLock l(&high); }
  { MutexLock l(&low); }
  { MutexLock l(&high); }
}

#if defined(X3_DEBUG_LOCKS)

TEST(MutexRankDeathTest, InvertedAcquisitionDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex low(lock_rank::kViewStore);
  Mutex high(lock_rank::kStatsSink);
  EXPECT_DEATH(
      {
        MutexLock a(&high);
        MutexLock b(&low);  // rank goes down while high is held: fatal
      },
      "lock rank inversion");
}

TEST(MutexRankDeathTest, SameRankNestingDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a(lock_rank::kBufferPool);
  Mutex b(lock_rank::kBufferPool);
  EXPECT_DEATH(
      {
        MutexLock la(&a);
        MutexLock lb(&b);  // equal rank is an inversion too
      },
      "lock rank inversion");
}

TEST(MutexRankDeathTest, ViewStoreIntoCuboidCacheDies) {
  // Eviction is legal only cache -> store: a view store calling back
  // into the cache while holding its own lock would invert the order
  // and deadlock against a concurrent Insert.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex store(lock_rank::kViewStore);
  Mutex cache(lock_rank::kServerCache);
  EXPECT_DEATH(
      {
        MutexLock a(&store);
        MutexLock b(&cache);
      },
      "lock rank inversion");
}

TEST(MutexRankDeathTest, CacheIntoServerSessionDies) {
  // The cache must never re-enter the server's session map (e.g. to
  // drop a shape) while holding its own lock.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex cache(lock_rank::kServerCache);
  Mutex session(lock_rank::kServerSession);
  EXPECT_DEATH(
      {
        MutexLock a(&cache);
        MutexLock b(&session);
      },
      "lock rank inversion");
}

TEST(MutexRankDeathTest, TicketIntoServerShapeDies) {
  // Ticket completion is a leaf below the shape latch: a worker that
  // still holds a ticket lock must not wait on a shape build.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex ticket(lock_rank::kServerTicket);
  Mutex shape(lock_rank::kServerShape);
  EXPECT_DEATH(
      {
        MutexLock a(&ticket);
        MutexLock b(&shape);
      },
      "lock rank inversion");
}

TEST(MutexAssertHeldDeathTest, AssertHeldWithoutLockDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu;
  EXPECT_DEATH(mu.AssertHeld(), "AssertHeld");
}

TEST(MutexAssertHeldDeathTest, AssertHeldFromOtherThreadDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu;
        mu.Lock();
        std::thread other([&] { mu.AssertHeld(); });
        other.join();
      },
      "AssertHeld");
}

TEST(MutexAssertHeldTest, AssertHeldPassesForHolder) {
  Mutex mu;
  MutexLock lock(&mu);
  mu.AssertHeld();  // must not die
}

TEST(MutexAssertHeldTest, AssertHeldPassesAcrossCondVarReacquire) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    cv.Wait(&mu, [&] { return ready; });
    mu.AssertHeld();  // bookkeeping must survive the wait's reacquire
  }
  producer.join();
}

#endif  // X3_DEBUG_LOCKS

// --- MemoryBudget under contention ---

TEST(MemoryBudgetConcurrencyTest, HammeredReserveNeverExceedsCap) {
  constexpr size_t kCapacity = 1 << 20;
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 2000;
  constexpr size_t kChunk = 4096;
  MemoryBudget budget(kCapacity);
  std::atomic<bool> overshoot{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kRounds; ++i) {
        if (budget.Reserve(kChunk).ok()) {
          // The cap must hold at every instant, including while other
          // threads race their own reservations.
          if (budget.used() > kCapacity) {
            overshoot.store(true, std::memory_order_relaxed);
          }
          budget.Release(kChunk);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(overshoot.load());
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_LE(budget.peak(), kCapacity);
  EXPECT_GT(budget.peak(), 0u);
}

TEST(MemoryBudgetConcurrencyTest, MixedReserveAndForceReserveEndAtZero) {
  MemoryBudget budget(1 << 16);
  constexpr size_t kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 1000; ++i) {
        size_t bytes = 128 + 64 * (t + 1);
        if (t % 2 == 0) {
          // ForceReserve may overshoot the cap, but its accounting must
          // stay exact: each charge is matched by one release.
          budget.ForceReserve(bytes);
          budget.Release(bytes);
        } else if (budget.Reserve(bytes).ok()) {
          budget.Release(bytes);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryBudgetConcurrencyTest, ConcurrentScopedReservationsBalance) {
  MemoryBudget budget;  // unlimited: every reservation succeeds
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < 500; ++i) {
        ScopedReservation r1(&budget, 1024);
        ScopedReservation r2(&budget, 333);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_GE(budget.peak(), 1024u + 333u);
}

// --- StatsSink under contention ---

TEST(StatsSinkConcurrencyTest, ConcurrentRecordLosesNothing) {
  StatsSink sink;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 500;
  // 0.5 is exactly representable in binary, so summing kThreads *
  // kPerThread of them is exact — the equality below has no epsilon.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) sink.Record("stage", 0.5);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sink.CountStages("stage"), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(sink.TotalSeconds("stage"),
                   0.5 * static_cast<double>(kThreads * kPerThread));
}

TEST(StatsSinkConcurrencyTest, AppendMergesPerWorkerSinksExactly) {
  // The merge-at-join alternative to a shared sink: per-worker sinks
  // appended into one. Totals must equal the sums over the parts.
  StatsSink workers[3];
  workers[0].Record("cuboid/0", 0.25);
  workers[0].Record("cuboid/1", 0.25);
  workers[1].Record("cuboid/2", 0.5);
  workers[2].Record("pipe/0", 1.0);
  StatsSink merged;
  merged.Record("plan", 2.0);
  for (const StatsSink& w : workers) merged.Append(w);
  EXPECT_EQ(merged.CountStages("cuboid"), 3u);
  EXPECT_DOUBLE_EQ(merged.TotalSeconds("cuboid"), 1.0);
  EXPECT_DOUBLE_EQ(merged.TotalSeconds("pipe"), 1.0);
  EXPECT_DOUBLE_EQ(merged.TotalSeconds("plan"), 2.0);
  EXPECT_EQ(merged.timings().size(), 5u);
}

TEST(StatsSinkConcurrencyTest, AggregateQueriesRaceRecordSafely) {
  // Readers using the aggregate queries may overlap writers; they see
  // some prefix of the records, never torn state.
  StatsSink sink;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (size_t i = 0; i < 2000; ++i) sink.Record("w", 0.5);
    stop.store(true);
  });
  size_t last = 0;
  while (!stop.load()) {
    size_t n = sink.CountStages("w");
    EXPECT_GE(n, last);  // append-only: counts are monotone
    last = n;
  }
  writer.join();
  EXPECT_EQ(sink.CountStages("w"), 2000u);
}

// --- ThreadPool / TaskGroup ---

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { ran.fetch_add(1); });
  }
  TaskGroup group(&pool);
  for (int i = 0; i < 10; ++i) {
    group.Spawn([&]() -> Status {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  // The group's tasks are done; plain Submits drain by the destructor.
  // (Destroy the pool before asserting to exercise that contract.)
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
    // No join here: the destructor must run all 200 before the workers
    // exit, so owner-held state stays referenceable from tasks.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran.store(true); });
  TaskGroup group(&pool);
  group.Spawn([] { return Status::OK(); });
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DefaultConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultConcurrency(), 1u);
}

TEST(TaskGroupTest, ReportsFirstErrorInSpawnOrderAndRunsEverything) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Spawn([&]() -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  group.Spawn([&]() -> Status {
    ran.fetch_add(1);
    return Status::InvalidArgument("first by spawn order");
  });
  group.Spawn([&]() -> Status {
    ran.fetch_add(1);
    return Status::Internal("second by spawn order");
  });
  group.Spawn([&]() -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  Status status = group.Wait();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // A failure does not skip later tasks — cooperative cancellation is
  // the CancellationToken's job, not the group's.
  EXPECT_EQ(ran.load(), 4);
}

TEST(TaskGroupTest, TasksUnwindCleanlyOnMidFlightCancellation) {
  // Every task polls a shared context; CancelAfterChecks trips the
  // token partway through, and each task's own unwind must release its
  // budget charges — the drain leaves nothing reserved.
  CancellationToken token;
  token.CancelAfterChecks(50);
  MemoryBudget budget(1 << 20);
  ExecutionContext ctx({&budget, nullptr, &token, std::nullopt});
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> cancelled{0};
  for (int t = 0; t < 8; ++t) {
    group.Spawn([&]() -> Status {
      ScopedReservation r(&budget, 2048);
      for (int i = 0; i < 100; ++i) {
        Status s = ctx.Poll();
        if (!s.ok()) {
          cancelled.fetch_add(1);
          return s;
        }
      }
      return Status::OK();
    });
  }
  Status status = group.Wait();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_GT(cancelled.load(), 0);
  EXPECT_EQ(budget.used(), 0u);
}

// --- RunPlanTasks ---

std::vector<PlanTask> ChainTasks(std::vector<int>* order, size_t n) {
  // Task i depends on i-1 and appends i to `order`: any schedule that
  // honors dependencies yields 0,1,...,n-1 exactly.
  std::vector<PlanTask> tasks;
  for (size_t i = 0; i < n; ++i) {
    PlanTask task;
    task.run = [order, i] {
      order->push_back(static_cast<int>(i));
      return Status::OK();
    };
    if (i > 0) task.deps.push_back(i - 1);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

TEST(RunPlanTasksTest, ChainRunsInDependencyOrderAtEveryParallelism) {
  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{4}}) {
    std::vector<int> order;  // only ready tasks run, so no lock needed
    Status s = RunPlanTasks(ChainTasks(&order, 16), parallelism);
    EXPECT_TRUE(s.ok()) << s;
    ASSERT_EQ(order.size(), 16u) << "parallelism " << parallelism;
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], static_cast<int>(i))
          << "parallelism " << parallelism;
    }
  }
}

TEST(RunPlanTasksTest, IndependentTasksAllRunAndCountsSum) {
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    std::atomic<uint64_t> ran{0};
    ExecutionContext ctx;
    std::vector<PlanTask> tasks;
    for (size_t i = 0; i < 20; ++i) {
      // Every task counts into the one shared context, from whichever
      // worker runs it: the relaxed sums must add up exactly.
      tasks.push_back(PlanTask{[&ran, &ctx, i] {
                                 ran.fetch_add(1);
                                 ctx.costs().base_scans.Add();
                                 ctx.costs().records_sorted.Add(i);
                                 return Status::OK();
                               },
                               {}});
    }
    Status s = RunPlanTasks(std::move(tasks), parallelism);
    EXPECT_TRUE(s.ok()) << s;
    EXPECT_EQ(ran.load(), 20u);
    EXPECT_EQ(ctx.costs().base_scans.value(), 20u);
    EXPECT_EQ(ctx.costs().records_sorted.value(), 190u);  // 0 + ... + 19
  }
}

TEST(RunPlanTasksTest, FailureSkipsDependentsButReportsByTaskIndex) {
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    std::atomic<bool> dependent_ran{false};
    std::vector<PlanTask> tasks;
    tasks.push_back(
        PlanTask{[] { return Status::Internal("task 0 fails"); }, {}});
    PlanTask dependent;
    dependent.run = [&] {
      dependent_ran.store(true);
      return Status::OK();
    };
    dependent.deps.push_back(0);
    tasks.push_back(std::move(dependent));
    Status s = RunPlanTasks(std::move(tasks), parallelism);
    EXPECT_EQ(s.code(), StatusCode::kInternal)
        << "parallelism " << parallelism;
    EXPECT_FALSE(dependent_ran.load()) << "parallelism " << parallelism;
  }
}

TEST(RunPlanTasksTest, FirstErrorByIndexWinsOverCompletionOrder) {
  // Two failing independent tasks: whatever order they finish in, the
  // reported error is task 1's (the lower index), never task 3's.
  for (int repeat = 0; repeat < 20; ++repeat) {
    std::vector<PlanTask> tasks;
    for (size_t i = 0; i < 4; ++i) {
      tasks.push_back(
          PlanTask{[i]() -> Status {
                     if (i == 1) return Status::InvalidArgument("low index");
                     if (i == 3) return Status::Internal("high index");
                     return Status::OK();
                   },
                   {}});
    }
    Status s = RunPlanTasks(std::move(tasks), 4);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
  }
}

TEST(RunPlanTasksTest, EmptyTaskListIsOk) {
  EXPECT_TRUE(RunPlanTasks({}, 4).ok());
  EXPECT_TRUE(RunPlanTasks({}, 1).ok());
}

}  // namespace
}  // namespace x3
