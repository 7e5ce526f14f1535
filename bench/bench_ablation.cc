// Ablation benchmarks for the design choices DESIGN.md calls out:
//  * stack-based structural join vs the naive nested loop;
//  * BUC's iceberg pruning on vs off;
//  * COUNTER's memory budget swept over a decade (multi-pass onset);
//  * buffer pool size during fact-table materialization (the paged
//    substrate's contribution to pattern-evaluation cost).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "cube/cube_spec.h"
#include "cube/view_store.h"
#include "gen/treebank_gen.h"
#include "xdb/structural_join.h"

namespace x3 {
namespace {

std::unique_ptr<Database> MakeDb(size_t trees, size_t pool_pages) {
  DatabaseOptions db_options;
  db_options.buffer_pool_pages = pool_pages;
  auto db = Database::Open(db_options);
  X3_CHECK(db.ok());
  TreebankConfig config;
  config.num_axes = 4;
  config.missing_probability = 0.2;
  TreebankGenerator gen(config);
  X3_CHECK(gen.LoadInto(db->get(), trees).ok());
  return std::move(*db);
}

void BM_AblationJoinStack(benchmark::State& state) {
  auto db = MakeDb(static_cast<size_t>(state.range(0)), 4096);
  const auto& anc = db->NodesWithTag(TreebankRootTag());
  const auto& desc = db->NodesWithTag(TreebankAxisTag(0));
  for (auto _ : state) {
    auto pairs = StructuralJoin(*db, anc, desc, StructuralAxis::kDescendant);
    X3_CHECK(pairs.ok());
    benchmark::DoNotOptimize(pairs->size());
  }
}
BENCHMARK(BM_AblationJoinStack)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_AblationJoinNestedLoop(benchmark::State& state) {
  auto db = MakeDb(static_cast<size_t>(state.range(0)), 4096);
  const auto& anc = db->NodesWithTag(TreebankRootTag());
  const auto& desc = db->NodesWithTag(TreebankAxisTag(0));
  for (auto _ : state) {
    auto pairs =
        NestedLoopStructuralJoin(*db, anc, desc, StructuralAxis::kDescendant);
    X3_CHECK(pairs.ok());
    benchmark::DoNotOptimize(pairs->size());
  }
}
BENCHMARK(BM_AblationJoinNestedLoop)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_AblationBucIceberg(benchmark::State& state) {
  ExperimentSetting setting;
  setting.num_axes = 5;
  setting.num_trees = 5000;
  setting.dense = false;
  const Workload& workload = bench::CachedTreebankWorkload(setting);
  uint64_t partition_rows = 0;
  for (auto _ : state) {
    ExecutionContext ctx;
    CubeComputeOptions options;
    options.min_count = state.range(0);
    options.exec = &ctx;
    auto cube = ComputeCube(CubeAlgorithm::kBUC, workload.facts,
                            workload.lattice, options);
    X3_CHECK(cube.ok());
    partition_rows = ctx.costs().partition_rows.value();
    benchmark::DoNotOptimize(cube->TotalCells());
  }
  state.counters["partition_rows"] = static_cast<double>(partition_rows);
}
BENCHMARK(BM_AblationBucIceberg)->Arg(0)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_AblationCounterBudget(benchmark::State& state) {
  ExperimentSetting setting;
  setting.num_axes = 5;
  setting.num_trees = 5000;
  setting.dense = false;
  const Workload& workload = bench::CachedTreebankWorkload(setting);
  size_t budget_bytes = static_cast<size_t>(state.range(0)) * 1024;
  uint64_t passes = 0;
  for (auto _ : state) {
    MemoryBudget budget(budget_bytes);
    ExecutionContext ctx({&budget, nullptr, nullptr, std::nullopt});
    CubeComputeOptions options;
    options.exec = &ctx;
    auto cube = ComputeCube(CubeAlgorithm::kCounter, workload.facts,
                            workload.lattice, options);
    X3_CHECK(cube.ok());
    X3_CHECK(budget.used() == 0);
    passes = ctx.costs().passes.value();
    benchmark::DoNotOptimize(cube->TotalCells());
  }
  state.counters["passes"] = static_cast<double>(passes);
}
BENCHMARK(BM_AblationCounterBudget)
    ->Arg(16384)  // effectively unbounded: one pass
    ->Arg(2048)
    ->Arg(512)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_AblationViewStore(benchmark::State& state) {
  // Answer every cuboid of a 4-axis non-summarizable cube either from
  // the base table (range 0) or through a materialized finest view
  // with fact-id tracking (range 1) — §3.6's trade-off quantified.
  ExperimentSetting setting;
  setting.num_axes = 4;
  setting.num_trees = 4000;
  setting.coverage_holds = false;
  setting.disjointness_holds = false;
  const Workload& workload = bench::CachedTreebankWorkload(setting);
  bool use_view = state.range(0) != 0;
  CubeViewStore store(&workload.facts, &workload.lattice);
  if (use_view) {
    X3_CHECK(store.Materialize(workload.lattice.FinestCuboid(),
                               /*with_fact_ids=*/true)
                 .ok());
  }
  uint64_t from_base = 0;
  for (auto _ : state) {
    from_base = 0;
    for (CuboidId c = 0; c < workload.lattice.num_cuboids(); ++c) {
      ViewComputeStats stats;
      auto cells = store.Answer(c, AggregateFunction::kCount,
                                &workload.properties, &stats);
      X3_CHECK(cells.ok());
      if (stats.strategy == ViewStrategy::kBase) ++from_base;
      benchmark::DoNotOptimize(cells->size());
    }
  }
  state.counters["from_base"] = static_cast<double>(from_base);
  state.counters["view_bytes"] = static_cast<double>(store.ApproxBytes());
}
BENCHMARK(BM_AblationViewStore)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_AblationBufferPoolSize(benchmark::State& state) {
  size_t pool_pages = static_cast<size_t>(state.range(0));
  auto db = MakeDb(2000, pool_pages);
  TreebankConfig config;
  config.num_axes = 4;
  CubeQuery query = MakeTreebankQuery(config);
  auto lattice = BuildCubeLattice(query);
  X3_CHECK(lattice.ok());
  for (auto _ : state) {
    auto facts = BuildFactTable(*db, query, *lattice);
    X3_CHECK(facts.ok());
    benchmark::DoNotOptimize(facts->size());
  }
  state.counters["pool_hits"] =
      static_cast<double>(db->buffer_stats().hits);
  state.counters["pool_misses"] =
      static_cast<double>(db->buffer_stats().misses);
}
BENCHMARK(BM_AblationBufferPoolSize)->Arg(8)->Arg(64)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace x3

int main(int argc, char** argv) {
  return x3::bench::RunRegisteredBenchmarks(argc, argv);
}
