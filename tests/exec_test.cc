// Tests for the execution layer introduced by the plan/executor split:
// CancellationToken, StatsSink, ExecutionContext, BuildCubePlan/
// ExplainCubePlan across all nine variants, and the cross-algorithm
// conformance harness (every variant vs the reference, including
// mid-flight cancellation and deadline-expiry unwinds with full budget
// release).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "cube/algorithm.h"
#include "cube/plan.h"
#include "gen/workload.h"
#include "storage/temp_file.h"
#include "util/exec.h"
#include "util/memory_budget.h"

namespace x3 {
namespace {

// --- CancellationToken ---

TEST(CancellationTokenTest, StartsClearAndCancelSticks) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, CancelAfterChecksTripsDeterministically) {
  CancellationToken token;
  token.CancelAfterChecks(3);
  // Three further checks survive, then the token trips and stays set.
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, CancelAfterZeroChecksTripsImmediately) {
  CancellationToken token;
  token.CancelAfterChecks(0);
  EXPECT_TRUE(token.cancelled());
}

// --- StatsSink ---

TEST(StatsSinkTest, RecordAndTotalSeconds) {
  StatsSink sink;
  sink.Record("plan", 0.5);
  sink.Record("cuboid/0", 1.0);
  sink.Record("cuboid/1", 2.0);
  sink.Record("cuboidish", 8.0);  // not under the "cuboid" prefix
  EXPECT_DOUBLE_EQ(sink.TotalSeconds("plan"), 0.5);
  EXPECT_DOUBLE_EQ(sink.TotalSeconds("cuboid"), 3.0);
  EXPECT_DOUBLE_EQ(sink.TotalSeconds("cuboid/1"), 2.0);
  EXPECT_DOUBLE_EQ(sink.TotalSeconds("absent"), 0.0);
  EXPECT_EQ(sink.CountStages("cuboid"), 2u);
  EXPECT_EQ(sink.CountStages("plan"), 1u);
  EXPECT_EQ(sink.timings().size(), 4u);
}

TEST(StatsSinkTest, ToStringAndClear) {
  StatsSink sink;
  sink.Record("materialize", 0.001);
  std::string rendered = sink.ToString();
  EXPECT_NE(rendered.find("materialize"), std::string::npos);
  sink.Clear();
  EXPECT_TRUE(sink.timings().empty());
  EXPECT_DOUBLE_EQ(sink.TotalSeconds("materialize"), 0.0);
}

TEST(StatsSinkTest, ScopedStageTimerRecordsOnExit) {
  StatsSink sink;
  { ScopedStageTimer timer(&sink, "scope"); }
  ASSERT_EQ(sink.timings().size(), 1u);
  EXPECT_EQ(sink.timings()[0].label, "scope");
  EXPECT_GE(sink.timings()[0].seconds, 0.0);
  // A null sink is a no-op, not a crash.
  { ScopedStageTimer timer(nullptr, "nowhere"); }
}

// --- ExecutionContext ---

TEST(ExecutionContextTest, DefaultContextNeverInterrupts) {
  ExecutionContext ctx;
  for (int i = 0; i < 2000; ++i) EXPECT_TRUE(ctx.Poll().ok());
  EXPECT_TRUE(ctx.CheckInterrupted().ok());
  EXPECT_EQ(ctx.budget(), nullptr);
  EXPECT_EQ(ctx.temp_files(), nullptr);
  EXPECT_FALSE(ctx.RemainingSeconds().has_value());
}

TEST(ExecutionContextTest, PollReportsCancellation) {
  CancellationToken token;
  ExecutionContext ctx({nullptr, nullptr, &token, std::nullopt});
  EXPECT_TRUE(ctx.Poll().ok());
  token.Cancel();
  Status status = ctx.Poll();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.CheckInterrupted().code(), StatusCode::kCancelled);
}

TEST(ExecutionContextTest, CheckInterruptedReportsExpiredDeadline) {
  ExecutionContext ctx({nullptr, nullptr, nullptr,
                        ExecutionContext::Clock::now() -
                            std::chrono::milliseconds(1)});
  EXPECT_EQ(ctx.CheckInterrupted().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(ctx.RemainingSeconds().has_value());
  EXPECT_DOUBLE_EQ(*ctx.RemainingSeconds(), 0.0);
}

TEST(ExecutionContextTest, PollNoticesExpiredDeadlineWithinStride) {
  ExecutionContext ctx({nullptr, nullptr, nullptr,
                        ExecutionContext::Clock::now() -
                            std::chrono::milliseconds(1)});
  // Poll reads the clock every kDeadlineStride calls on each thread,
  // and the per-thread counter carries over from earlier contexts on
  // this thread — so the expiry must surface within one full stride of
  // polls, wherever the counter currently stands. The bound is derived
  // from the constant, not hard-coded, so a stride change cannot
  // silently turn this test flaky.
  Status status = Status::OK();
  for (uint64_t i = 0;
       i <= ExecutionContext::kDeadlineStride && status.ok(); ++i) {
    status = ctx.Poll();
  }
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecutionContextTest, CheckInterruptedIsUnstridedAtStageBoundaries) {
  // Unlike Poll, CheckInterrupted must notice an expired deadline on
  // the very first call — stage boundaries never wait out a stride.
  ExecutionContext ctx({nullptr, nullptr, nullptr,
                        ExecutionContext::Clock::now() -
                            std::chrono::milliseconds(1)});
  EXPECT_EQ(ctx.CheckInterrupted().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecutionContextTest, RemainingSecondsTracksFutureDeadline) {
  ExecutionContext ctx(
      {nullptr, nullptr, nullptr, DeadlineAfterSeconds(100.0)});
  EXPECT_TRUE(ctx.CheckInterrupted().ok());
  ASSERT_TRUE(ctx.RemainingSeconds().has_value());
  EXPECT_GT(*ctx.RemainingSeconds(), 0.0);
  EXPECT_LE(*ctx.RemainingSeconds(), 100.0);
}

// --- Plans and EXPLAIN for every variant ---

Result<Workload> OverlapWorkload() {
  ExperimentSetting setting;
  setting.coverage_holds = false;
  setting.disjointness_holds = false;
  setting.dense = false;
  setting.num_axes = 3;
  setting.num_trees = 300;
  setting.seed = 11;
  return BuildTreebankWorkload(setting);
}

Result<Workload> SummarizableWorkload() {
  ExperimentSetting setting;
  setting.coverage_holds = true;
  setting.disjointness_holds = true;
  setting.dense = false;
  setting.num_axes = 3;
  setting.num_trees = 300;
  setting.seed = 12;
  return BuildTreebankWorkload(setting);
}

TEST(CubePlanTest, EveryVariantPlansEveryCuboidExactlyOnce) {
  auto workload = OverlapWorkload();
  ASSERT_TRUE(workload.ok()) << workload.status();
  for (CubeAlgorithm algo : kAllCubeAlgorithms) {
    CubePlan plan =
        BuildCubePlan(algo, workload->lattice, workload->properties);
    EXPECT_EQ(plan.algorithm, algo);
    EXPECT_EQ(plan.steps.size(), workload->lattice.num_cuboids())
        << CubeAlgorithmToString(algo);
    std::set<CuboidId> planned;
    for (const CuboidPlanStep& step : plan.steps) planned.insert(step.cuboid);
    EXPECT_EQ(planned.size(), workload->lattice.num_cuboids())
        << CubeAlgorithmToString(algo);
    std::string rendered = ExplainCubePlan(plan, workload->lattice);
    EXPECT_NE(rendered.find(CubeAlgorithmToString(algo)), std::string::npos);
    EXPECT_NE(rendered.find("cuboid"), std::string::npos);
  }
}

TEST(CubePlanTest, UnsafeStepsTrackTheUnprovenAssumptions) {
  auto overlap = OverlapWorkload();
  auto summarizable = SummarizableWorkload();
  ASSERT_TRUE(overlap.ok());
  ASSERT_TRUE(summarizable.ok());

  // Always-correct variants never plan unsafe steps, either way.
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kReference, CubeAlgorithm::kCounter,
        CubeAlgorithm::kBUC, CubeAlgorithm::kBUCCust, CubeAlgorithm::kTD,
        CubeAlgorithm::kTDCust}) {
    EXPECT_EQ(BuildCubePlan(algo, overlap->lattice, overlap->properties)
                  .unsafe_steps,
              0u)
        << CubeAlgorithmToString(algo);
    EXPECT_EQ(BuildCubePlan(algo, summarizable->lattice,
                            summarizable->properties)
                  .unsafe_steps,
              0u)
        << CubeAlgorithmToString(algo);
  }

  // The OPT variants assume summarizability: their plans carry UNSAFE
  // steps exactly when the property map cannot prove the assumption.
  for (CubeAlgorithm algo : {CubeAlgorithm::kBUCOpt, CubeAlgorithm::kTDOpt,
                             CubeAlgorithm::kTDOptAll}) {
    CubePlan unproven =
        BuildCubePlan(algo, overlap->lattice, overlap->properties);
    EXPECT_GT(unproven.unsafe_steps, 0u) << CubeAlgorithmToString(algo);
    EXPECT_NE(ExplainCubePlan(unproven, overlap->lattice).find("UNSAFE"),
              std::string::npos)
        << CubeAlgorithmToString(algo);
    CubePlan proven = BuildCubePlan(algo, summarizable->lattice,
                                    summarizable->properties);
    EXPECT_EQ(proven.unsafe_steps, 0u) << CubeAlgorithmToString(algo);
    EXPECT_EQ(ExplainCubePlan(proven, summarizable->lattice).find("UNSAFE"),
              std::string::npos)
        << CubeAlgorithmToString(algo);
  }
}

// --- Plan dependency DAG (drives the parallel executor) ---

TEST(CubePlanTest, DependenciesRespectTaskNumberingForEveryVariant) {
  auto workload = SummarizableWorkload();
  ASSERT_TRUE(workload.ok()) << workload.status();
  for (CubeAlgorithm algo : kAllCubeAlgorithms) {
    CubePlan plan =
        BuildCubePlan(algo, workload->lattice, workload->properties);
    std::vector<std::vector<size_t>> deps = PlanStepDependencies(plan);
    ASSERT_EQ(deps.size(), plan.pipes.size() + plan.steps.size())
        << CubeAlgorithmToString(algo);
    // Pipes are sources: no dependencies. Every dependency points at an
    // earlier task, so "pipes then steps in order" is always a valid
    // sequential schedule.
    for (size_t t = 0; t < deps.size(); ++t) {
      if (t < plan.pipes.size()) {
        EXPECT_TRUE(deps[t].empty()) << CubeAlgorithmToString(algo);
      }
      for (size_t d : deps[t]) {
        EXPECT_LT(d, t) << CubeAlgorithmToString(algo);
      }
    }
  }
}

TEST(CubePlanTest, RollupStepsDependOnTheirProducers) {
  auto workload = SummarizableWorkload();
  ASSERT_TRUE(workload.ok()) << workload.status();
  CubePlan plan = BuildCubePlan(CubeAlgorithm::kTDOptAll, workload->lattice,
                                workload->properties);
  std::vector<std::vector<size_t>> deps = PlanStepDependencies(plan);
  // TDOPTALL computes the finest cuboid from base and rolls everything
  // else up, so every step but the first must name its source's task.
  ASSERT_GT(plan.steps.size(), 1u);
  EXPECT_TRUE(deps[0].empty());
  std::map<CuboidId, size_t> producer;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const CuboidPlanStep& step = plan.steps[i];
    if (step.kind == CuboidPlanStep::Kind::kRollup ||
        step.kind == CuboidPlanStep::Kind::kCopy) {
      ASSERT_EQ(deps[i].size(), 1u);
      EXPECT_EQ(deps[i][0], producer.at(step.source));
    }
    producer[step.cuboid] = i;
  }
}

TEST(CubePlanTest, SharedSortStepsDependOnTheirPipes) {
  auto workload = SummarizableWorkload();
  ASSERT_TRUE(workload.ok()) << workload.status();
  CubePlan plan = BuildCubePlan(CubeAlgorithm::kTDOpt, workload->lattice,
                                workload->properties);
  ASSERT_GT(plan.pipes.size(), 0u);
  std::vector<std::vector<size_t>> deps = PlanStepDependencies(plan);
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const CuboidPlanStep& step = plan.steps[i];
    ASSERT_EQ(step.kind, CuboidPlanStep::Kind::kSharedSort);
    ASSERT_EQ(deps[plan.pipes.size() + i].size(), 1u);
    EXPECT_EQ(deps[plan.pipes.size() + i][0],
              static_cast<size_t>(step.source));
  }
}

// --- Cross-algorithm conformance harness ---
//
// Sweeps every variant (kAllCubeAlgorithms, no hand-written list)
// against the reference on an overlap workload and a fully
// summarizable one. The plan's own safety annotation decides whether
// cell-exact agreement is required: a plan with zero unsafe steps
// promises the exact cube, whatever the algorithm.

void RunConformanceSweep(const Workload& workload) {
  CubeComputeOptions options;
  options.aggregate = AggregateFunction::kCount;
  options.properties = &workload.properties;

  auto reference = ComputeCube(CubeAlgorithm::kReference, workload.facts,
                               workload.lattice, options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (CubeAlgorithm algo : kAllCubeAlgorithms) {
    CubePlan plan =
        BuildCubePlan(algo, workload.lattice, workload.properties);
    auto cube =
        ComputeCube(algo, workload.facts, workload.lattice, options);
    ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo) << ": "
                           << cube.status();
    if (plan.unsafe_steps == 0) {
      std::string diff;
      EXPECT_TRUE(reference->Equals(*cube, &diff))
          << CubeAlgorithmToString(algo) << ": " << diff;
    }
  }
}

TEST(ExecutorConformanceTest, RegisteredExecutorsMatchReferenceOnOverlap) {
  auto workload = OverlapWorkload();
  ASSERT_TRUE(workload.ok()) << workload.status();
  RunConformanceSweep(*workload);
}

TEST(ExecutorConformanceTest,
     RegisteredExecutorsMatchReferenceWhenSummarizable) {
  auto workload = SummarizableWorkload();
  ASSERT_TRUE(workload.ok()) << workload.status();
  RunConformanceSweep(*workload);
}

// --- Mid-flight cancellation and deadline expiry ---

class ExecutorInterruptTest
    : public ::testing::TestWithParam<CubeAlgorithm> {};

TEST_P(ExecutorInterruptTest, CancelledMidComputationReleasesBudget) {
  auto workload = OverlapWorkload();
  ASSERT_TRUE(workload.ok()) << workload.status();

  CancellationToken token;
  // Trip deep inside the hot loop: far past planning/validation polls,
  // far short of the ~300-fact scans every family performs.
  token.CancelAfterChecks(40);
  MemoryBudget budget(64 * 1024 * 1024);
  TempFileManager temp;
  ExecutionContext ctx({&budget, &temp, &token, std::nullopt});

  CubeComputeOptions options;
  options.aggregate = AggregateFunction::kCount;
  options.properties = &workload->properties;
  options.exec = &ctx;

  auto cube = ComputeCube(GetParam(), workload->facts, workload->lattice,
                          options);
  ASSERT_FALSE(cube.ok());
  EXPECT_EQ(cube.status().code(), StatusCode::kCancelled)
      << cube.status();
  // Every budget charge must have been released on the unwind.
  EXPECT_EQ(budget.used(), 0u);
}

TEST_P(ExecutorInterruptTest, ExpiredDeadlineStopsComputation) {
  auto workload = OverlapWorkload();
  ASSERT_TRUE(workload.ok()) << workload.status();

  MemoryBudget budget(64 * 1024 * 1024);
  TempFileManager temp;
  ExecutionContext ctx({&budget, &temp, nullptr,
                        ExecutionContext::Clock::now() -
                            std::chrono::milliseconds(1)});

  CubeComputeOptions options;
  options.aggregate = AggregateFunction::kCount;
  options.properties = &workload->properties;
  options.exec = &ctx;

  auto cube = ComputeCube(GetParam(), workload->facts, workload->lattice,
                          options);
  ASSERT_FALSE(cube.ok());
  EXPECT_EQ(cube.status().code(), StatusCode::kDeadlineExceeded)
      << cube.status();
  EXPECT_EQ(budget.used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ExecutorInterruptTest,
    ::testing::Values(CubeAlgorithm::kReference, CubeAlgorithm::kCounter,
                      CubeAlgorithm::kBUC, CubeAlgorithm::kBUCOpt,
                      CubeAlgorithm::kBUCCust, CubeAlgorithm::kTD,
                      CubeAlgorithm::kTDOpt, CubeAlgorithm::kTDOptAll,
                      CubeAlgorithm::kTDCust),
    [](const ::testing::TestParamInfo<CubeAlgorithm>& info) {
      return CubeAlgorithmToString(info.param);
    });

// --- Stage stats surfaced through the context ---

TEST(ExecutorStatsTest, ComputeCubeRecordsPlanAndComputeStages) {
  auto workload = SummarizableWorkload();
  ASSERT_TRUE(workload.ok()) << workload.status();

  MemoryBudget budget;
  TempFileManager temp;
  ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});

  CubeComputeOptions options;
  options.aggregate = AggregateFunction::kCount;
  options.properties = &workload->properties;
  options.exec = &ctx;

  auto cube = ComputeCube(CubeAlgorithm::kTDOpt, workload->facts,
                          workload->lattice, options);
  ASSERT_TRUE(cube.ok()) << cube.status();

  const StatsSink& stats = *ctx.stats();
  EXPECT_EQ(stats.CountStages("plan"), 1u);
  EXPECT_EQ(stats.CountStages("compute"), 1u);
  // TDOPT runs shared-sort pipes; each leaves a "pipe/N" stage.
  EXPECT_GT(stats.CountStages("pipe"), 0u);
  EXPECT_GE(stats.TotalSeconds("compute"), 0.0);
}

}  // namespace
}  // namespace x3
