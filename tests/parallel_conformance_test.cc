// Randomized differential test for the parallel cube executor: every
// algorithm, run at parallelism 1 (the sequential reference), 2 and
// the hardware concurrency, must produce cell-exact identical cubes
// and the same cost counts (COUNTER's batching excepted) — including
// the UNSAFE variants, whose (wrong under violated assumptions) output
// must still be *deterministically* wrong.
// The workloads are seeded Treebank- and DBLP-shaped generations
// spanning the summarizability quadrants, plus iceberg thresholds and
// mid-flight cancellation at parallelism 4. Runs in the tsan CI lane.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cube/algorithm.h"
#include "gen/workload.h"
#include "storage/temp_file.h"
#include "util/exec.h"
#include "util/memory_budget.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace x3 {
namespace {

/// The parallelism levels under test: sequential baseline, minimal
/// parallelism, and whatever this machine offers (deduplicated, so a
/// 1- or 2-core machine doesn't run the same level twice).
std::vector<size_t> ParallelismLevels() {
  std::vector<size_t> levels = {1, 2};
  size_t hw = ThreadPool::DefaultConcurrency();
  if (hw != 1 && hw != 2) levels.push_back(hw);
  return levels;
}

struct RandomSetting {
  ExperimentSetting setting;
  std::string name;
};

/// Seeded random sweep over the summarizability quadrants: the
/// properties decide which plan steps are safe and therefore which
/// step kinds (rollup, copy, shared-sort, base) the executors schedule
/// — randomizing them exercises every dependency shape of the DAG.
std::vector<RandomSetting> RandomTreebankSettings(uint64_t seed,
                                                  size_t count) {
  Random rng(seed);
  std::vector<RandomSetting> out;
  for (size_t i = 0; i < count; ++i) {
    RandomSetting rs;
    rs.setting.coverage_holds = rng.Bernoulli(0.5);
    rs.setting.disjointness_holds = rng.Bernoulli(0.5);
    rs.setting.dense = rng.Bernoulli(0.5);
    rs.setting.num_axes = 2 + rng.UniformRange(0, 1);  // 2..3
    rs.setting.num_trees = 150 + rng.UniformRange(0, 150);
    rs.setting.seed = rng.Next();
    rs.name = std::string("treebank") +
              (rs.setting.coverage_holds ? "/cov" : "/nocov") +
              (rs.setting.disjointness_holds ? "/disj" : "/overlap") +
              (rs.setting.dense ? "/dense" : "/sparse");
    out.push_back(std::move(rs));
  }
  return out;
}

CubeComputeOptions BaseOptions(const Workload& workload,
                               ExecutionContext* ctx) {
  CubeComputeOptions options;
  options.aggregate = AggregateFunction::kCount;
  options.properties = &workload.properties;
  options.exec = ctx;
  return options;
}

/// The cost counts a run's parallelism must not change: each is a sum
/// over the plan's tasks, and the tasks are the same at every level.
/// Spills are left out because the budget is unlimited here. COUNTER
/// is left out by the caller: it splits its cuboids into one batch per
/// worker, so its pass and scan counts follow the parallelism.
std::vector<uint64_t> ParallelInvariantCosts(const ExecutionContext& ctx) {
  const ExecutionCosts& c = ctx.costs();
  return {c.base_scans.value(), c.sorts.value(),      c.records_sorted.value(),
          c.rollups.value(),    c.partitions.value(), c.partition_rows.value()};
}

/// The core differential check: for one workload and one algorithm,
/// every parallel run must equal the sequential run cell-for-cell, with
/// the same cost counts (COUNTER excepted), and end with the budget
/// fully released. `min_count` additionally sweeps the iceberg filter
/// through the parallel path.
void ExpectParallelMatchesSequential(const Workload& workload,
                                     CubeAlgorithm algo, int64_t min_count,
                                     const std::string& label) {
  MemoryBudget seq_budget;
  TempFileManager seq_temp;
  ExecutionContext seq_ctx({&seq_budget, &seq_temp, nullptr, std::nullopt});
  CubeComputeOptions options = BaseOptions(workload, &seq_ctx);
  options.min_count = min_count;
  options.parallelism = 1;
  auto sequential =
      ComputeCube(algo, workload.facts, workload.lattice, options);
  ASSERT_TRUE(sequential.ok()) << label << ": " << sequential.status();
  EXPECT_EQ(seq_budget.used(), 0u) << label;
  EXPECT_GT(seq_ctx.costs().base_scans.value(), 0u) << label;

  for (size_t parallelism : ParallelismLevels()) {
    if (parallelism == 1) continue;  // that IS the sequential run
    MemoryBudget budget;
    TempFileManager temp;
    ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
    CubeComputeOptions par = BaseOptions(workload, &ctx);
    par.min_count = min_count;
    par.parallelism = parallelism;
    auto parallel =
        ComputeCube(algo, workload.facts, workload.lattice, par);
    ASSERT_TRUE(parallel.ok())
        << label << " parallelism " << parallelism << ": "
        << parallel.status();
    std::string diff;
    EXPECT_TRUE(sequential->Equals(*parallel, &diff))
        << label << " parallelism " << parallelism << ": " << diff;
    if (algo != CubeAlgorithm::kCounter) {
      EXPECT_EQ(ParallelInvariantCosts(ctx), ParallelInvariantCosts(seq_ctx))
          << label << " parallelism " << parallelism
          << ": {base scans, sorts, records sorted, roll-ups, partitions, "
             "partition rows}";
    }
    EXPECT_EQ(budget.used(), 0u)
        << label << " parallelism " << parallelism;
  }
}

TEST(ParallelConformanceTest, RandomTreebankWorkloadsAllVariantsAllLevels) {
  for (const RandomSetting& rs : RandomTreebankSettings(20260805, 3)) {
    auto workload = BuildTreebankWorkload(rs.setting);
    ASSERT_TRUE(workload.ok()) << rs.name << ": " << workload.status();
    for (CubeAlgorithm algo : kAllCubeAlgorithms) {
      ExpectParallelMatchesSequential(
          *workload, algo, /*min_count=*/0,
          rs.name + "/" + CubeAlgorithmToString(algo));
    }
  }
}

TEST(ParallelConformanceTest, DblpWorkloadAllVariantsAllLevels) {
  auto workload = BuildDblpWorkload(/*num_articles=*/250, /*seed=*/17);
  ASSERT_TRUE(workload.ok()) << workload.status();
  for (CubeAlgorithm algo : kAllCubeAlgorithms) {
    ExpectParallelMatchesSequential(
        *workload, algo, /*min_count=*/0,
        std::string("dblp/") + CubeAlgorithmToString(algo));
  }
}

TEST(ParallelConformanceTest, SafeVariantsAlsoMatchTheReferenceInParallel) {
  // Beyond self-consistency: safe plans run in parallel must equal the
  // reference oracle, so the parallel path cannot be "consistently
  // wrong the same way" across levels.
  ExperimentSetting setting;
  setting.coverage_holds = false;
  setting.disjointness_holds = false;
  setting.num_axes = 3;
  setting.num_trees = 250;
  setting.seed = 99;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok()) << workload.status();

  ExecutionContext ref_ctx;
  auto reference =
      ComputeCube(CubeAlgorithm::kReference, workload->facts,
                  workload->lattice, BaseOptions(*workload, &ref_ctx));
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (CubeAlgorithm algo : kAllCubeAlgorithms) {
    CubePlan plan =
        BuildCubePlan(algo, workload->lattice, workload->properties);
    if (plan.unsafe_steps != 0) continue;
    for (size_t parallelism : ParallelismLevels()) {
      ExecutionContext ctx;
      CubeComputeOptions options = BaseOptions(*workload, &ctx);
      options.parallelism = parallelism;
      auto cube =
          ComputeCube(algo, workload->facts, workload->lattice, options);
      ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo) << ": "
                             << cube.status();
      std::string diff;
      EXPECT_TRUE(reference->Equals(*cube, &diff))
          << CubeAlgorithmToString(algo) << " parallelism " << parallelism
          << ": " << diff;
    }
  }
}

TEST(ParallelConformanceTest, SpilledRunsStayCellExact) {
  // A budget far below the fact bytes forces the TD family's external
  // sorts to spill and merge block-framed runs; that must not change a
  // single cell against an unbudgeted in-memory run, at any
  // parallelism, for any variant.
  ExperimentSetting setting;
  setting.coverage_holds = false;
  setting.disjointness_holds = false;
  setting.num_axes = 3;
  setting.num_trees = 400;
  setting.seed = 0x5b111;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok()) << workload.status();
  const size_t budget_bytes =
      std::max<size_t>(workload->facts.ApproxBytes() / 4, 16 * 1024);

  uint64_t spill_bytes = 0;
  for (CubeAlgorithm algo : kAllCubeAlgorithms) {
    const std::string name = CubeAlgorithmToString(algo);
    ExecutionContext unbudgeted_ctx;
    auto in_memory =
        ComputeCube(algo, workload->facts, workload->lattice,
                    BaseOptions(*workload, &unbudgeted_ctx));
    ASSERT_TRUE(in_memory.ok()) << name << ": " << in_memory.status();
    EXPECT_EQ(unbudgeted_ctx.costs().spilled_runs.value(), 0u) << name;

    for (size_t parallelism : ParallelismLevels()) {
      MemoryBudget budget(budget_bytes);
      TempFileManager temp;
      ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
      CubeComputeOptions options = BaseOptions(*workload, &ctx);
      options.parallelism = parallelism;
      auto spilling =
          ComputeCube(algo, workload->facts, workload->lattice, options);
      ASSERT_TRUE(spilling.ok())
          << name << " parallelism " << parallelism << ": "
          << spilling.status();
      std::string diff;
      EXPECT_TRUE(in_memory->Equals(*spilling, &diff))
          << name << " parallelism " << parallelism << ": " << diff;
      EXPECT_EQ(budget.used(), 0u) << name;
      spill_bytes += ctx.costs().spill_bytes.value();
    }
  }
  // The sweep is vacuous unless some variant actually spilled runs
  // under this budget.
  EXPECT_GT(spill_bytes, 0u);
}

TEST(ParallelConformanceTest, IcebergThresholdsSurviveParallelism) {
  ExperimentSetting setting;
  setting.coverage_holds = true;
  setting.disjointness_holds = true;
  setting.dense = true;  // dense cubes have cells above any threshold
  setting.num_axes = 3;
  setting.num_trees = 300;
  setting.seed = 7;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok()) << workload.status();
  for (int64_t min_count : {int64_t{2}, int64_t{5}}) {
    for (CubeAlgorithm algo : kAllCubeAlgorithms) {
      ExpectParallelMatchesSequential(
          *workload, algo, min_count,
          std::string("iceberg/") + CubeAlgorithmToString(algo) + "/min=" +
              std::to_string(min_count));
    }
  }
}

// --- Mid-flight cancellation under parallel execution ---

class ParallelCancellationTest
    : public ::testing::TestWithParam<CubeAlgorithm> {};

TEST_P(ParallelCancellationTest, CancelledRunDrainsAndReleasesBudget) {
  ExperimentSetting setting;
  setting.coverage_holds = false;
  setting.disjointness_holds = false;
  setting.num_axes = 3;
  setting.num_trees = 300;
  setting.seed = 11;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok()) << workload.status();

  CancellationToken token;
  // Trip deep inside the hot loops; the checks are counted across all
  // workers, so the trip lands mid-flight wherever the scheduler is.
  token.CancelAfterChecks(40);
  MemoryBudget budget(64 * 1024 * 1024);
  TempFileManager temp;
  ExecutionContext ctx({&budget, &temp, &token, std::nullopt});

  CubeComputeOptions options = BaseOptions(*workload, &ctx);
  options.parallelism = 4;
  auto cube = ComputeCube(GetParam(), workload->facts, workload->lattice,
                          options);
  ASSERT_FALSE(cube.ok());
  EXPECT_EQ(cube.status().code(), StatusCode::kCancelled) << cube.status();
  // Drained in-flight tasks must have released every budget charge.
  EXPECT_EQ(budget.used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ParallelCancellationTest,
    ::testing::Values(CubeAlgorithm::kReference, CubeAlgorithm::kCounter,
                      CubeAlgorithm::kBUC, CubeAlgorithm::kBUCOpt,
                      CubeAlgorithm::kBUCCust, CubeAlgorithm::kTD,
                      CubeAlgorithm::kTDOpt, CubeAlgorithm::kTDOptAll,
                      CubeAlgorithm::kTDCust),
    [](const ::testing::TestParamInfo<CubeAlgorithm>& info) {
      return CubeAlgorithmToString(info.param);
    });

}  // namespace
}  // namespace x3
