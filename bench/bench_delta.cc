// Delta cube maintenance vs full recompute for small-batch ingest
// (ROADMAP item 2 / BENCH_2.json). One Treebank-shaped database takes
// a transactional batch of fresh trees; the benchmark then times the
// three ways the serving layer could bring its materialized cuboids
// up to date:
//
//   DeltaMaintain     clone the fact table, append only the batch's
//                     facts, plan per-view merge/recompute, fold the
//                     delta into every view (the write lane's path);
//   FullRematerialize rebuild the fact table from the whole database
//                     and re-materialize every view from scratch;
//   FullRecomputeTD   rebuild the fact table and run a budget-
//                     constrained TDCUST cube (the pre-write-path
//                     answer: recompute through the spill-capable
//                     compute pipeline).
//
// Cell-exactness of the delta path against the rebuild is checked at
// startup (X3_CHECK), so the timings compare paths that provably
// produce identical cells. scripts/bench_capture.py capture-delta
// snapshots the sweep into BENCH_2.json.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "cube/cube_spec.h"
#include "cube/delta.h"
#include "cube/view_store.h"
#include "gen/treebank_gen.h"
#include "schema/dtd_parser.h"
#include "x3/engine.h"
#include "xdb/database.h"

namespace x3 {
namespace {

/// One ingest scenario: a base corpus, a committed batch of
/// `batch_trees`, the pre-batch view store (every cuboid materialized,
/// half with fact ids), and everything needed to maintain or rebuild.
struct DeltaScenario {
  std::unique_ptr<Database> db;
  CubeQuery query;
  std::unique_ptr<CubeLattice> lattice;
  LatticeProperties properties;
  std::unique_ptr<FactTable> base_facts;
  std::unique_ptr<CubeViewStore> base_store;
  NodeId first_new_node = 0;
  size_t batch_trees = 0;
};

const DeltaScenario& CachedScenario(size_t batch_trees) {
  static std::map<size_t, std::unique_ptr<DeltaScenario>>* cache =
      new std::map<size_t, std::unique_ptr<DeltaScenario>>();
  auto it = cache->find(batch_trees);
  if (it != cache->end()) return *it->second;

  auto scenario = std::make_unique<DeltaScenario>();
  TreebankConfig config;
  config.num_axes = 3;
  TreebankGenerator gen(config);

  auto db = Database::Open({});
  X3_CHECK(db.ok()) << db.status();
  scenario->db = std::move(*db);
  size_t base_trees = bench::TreesFor(400);
  X3_CHECK(gen.LoadInto(scenario->db.get(), base_trees).ok());

  scenario->query = MakeTreebankQuery(config);
  X3Engine engine(scenario->db.get());
  auto prepared = engine.Prepare(scenario->query);
  X3_CHECK(prepared.ok()) << prepared.status();
  scenario->lattice =
      std::make_unique<CubeLattice>(std::move(prepared->lattice));
  scenario->base_facts =
      std::make_unique<FactTable>(std::move(prepared->facts));

  auto schema = ParseDtd(gen.MatchingDtd());
  X3_CHECK(schema.ok()) << schema.status();
  auto properties =
      InferLatticeProperties(*schema, *scenario->lattice, TreebankRootTag());
  X3_CHECK(properties.ok()) << properties.status();
  scenario->properties = std::move(*properties);

  scenario->base_store = std::make_unique<CubeViewStore>(
      scenario->base_facts.get(), scenario->lattice.get());
  std::vector<CuboidId> cuboids = scenario->lattice->TopoOrder();
  for (size_t i = 0; i < cuboids.size(); ++i) {
    X3_CHECK(scenario->base_store
                 ->Materialize(cuboids[i], /*with_fact_ids=*/i % 2 == 0)
                 .ok());
  }

  // The committed small batch the maintenance paths race over.
  scenario->first_new_node = scenario->db->node_count();
  scenario->batch_trees = batch_trees;
  X3_CHECK(scenario->db->BeginBatch().ok());
  X3_CHECK(gen.LoadInto(scenario->db.get(), batch_trees).ok());
  X3_CHECK(scenario->db->CommitBatch().ok());

  it = cache->emplace(batch_trees, std::move(scenario)).first;
  return *it->second;
}

/// Runs the delta path once: clone + append + plan + apply. Returns
/// the maintained store (facts kept alive via the out-params).
std::unique_ptr<CubeViewStore> MaintainOnce(const DeltaScenario& s,
                                            std::unique_ptr<FactTable>* facts,
                                            DeltaStats* stats,
                                            size_t* new_facts) {
  *facts = std::make_unique<FactTable>(s.base_facts->Clone());
  auto appended = AppendNewFacts(*s.db, s.query, *s.lattice, s.first_new_node,
                                 facts->get());
  X3_CHECK(appended.ok()) << appended.status();
  *new_facts = *appended;
  auto store = std::make_unique<CubeViewStore>(facts->get(), s.lattice.get());
  DeltaPlan plan = PlanViewDeltas(*s.base_store, **facts, *s.lattice,
                                  s.properties, s.base_facts->size());
  X3_CHECK(ApplyViewDeltas(*s.base_store, store.get(), plan, stats).ok());
  return store;
}

/// Runs the rebuild path once: fresh fact table + every view from
/// scratch (fact ids mirroring the base store's layout).
std::unique_ptr<CubeViewStore> RematerializeOnce(
    const DeltaScenario& s, std::unique_ptr<FactTable>* facts) {
  auto fresh = BuildFactTable(*s.db, s.query, *s.lattice);
  X3_CHECK(fresh.ok()) << fresh.status();
  *facts = std::make_unique<FactTable>(std::move(*fresh));
  auto store = std::make_unique<CubeViewStore>(facts->get(), s.lattice.get());
  std::vector<CuboidId> cuboids = s.lattice->TopoOrder();
  for (size_t i = 0; i < cuboids.size(); ++i) {
    X3_CHECK(store->Materialize(cuboids[i], /*with_fact_ids=*/i % 2 == 0)
                 .ok());
  }
  return store;
}

/// Startup exactness gate: the delta-maintained store answers every
/// cuboid with exactly the cells a from-scratch rebuild produces.
/// Returns the total answered cells (the `cells` counter).
uint64_t CheckExactAndCountCells(const DeltaScenario& s) {
  std::unique_ptr<FactTable> delta_facts, fresh_facts;
  DeltaStats stats;
  size_t new_facts = 0;
  auto maintained = MaintainOnce(s, &delta_facts, &stats, &new_facts);
  auto rebuilt = RematerializeOnce(s, &fresh_facts);
  uint64_t cells = 0;
  for (CuboidId cuboid : s.lattice->TopoOrder()) {
    auto got = maintained->Answer(cuboid, AggregateFunction::kCount,
                                  &s.properties);
    auto want = rebuilt->Answer(cuboid, AggregateFunction::kCount,
                                &s.properties);
    X3_CHECK(got.ok() && want.ok());
    X3_CHECK(*got == *want) << "delta-maintained cuboid " << cuboid
                            << " diverges from full recompute";
    cells += got->size();
  }
  return cells;
}

void BM_DeltaMaintain(benchmark::State& state) {
  const DeltaScenario& s = CachedScenario(static_cast<size_t>(state.range(0)));
  uint64_t cells = CheckExactAndCountCells(s);
  DeltaStats stats;
  size_t new_facts = 0;
  for (auto _ : state) {
    std::unique_ptr<FactTable> facts;
    stats = DeltaStats{};
    auto store = MaintainOnce(s, &facts, &stats, &new_facts);
    benchmark::DoNotOptimize(store->num_views());
  }
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["facts"] = static_cast<double>(s.base_facts->size());
  state.counters["newFacts"] = static_cast<double>(new_facts);
  state.counters["viewsPatched"] = static_cast<double>(stats.views_patched);
  state.counters["viewsRecomputed"] =
      static_cast<double>(stats.views_recomputed);
  state.counters["factKB"] =
      static_cast<double>(s.base_facts->ApproxBytes()) / 1024.0;
  state.counters["spillKB"] = 0.0;  // the delta path never spills
}
BENCHMARK(BM_DeltaMaintain)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_FullRematerialize(benchmark::State& state) {
  const DeltaScenario& s = CachedScenario(static_cast<size_t>(state.range(0)));
  uint64_t cells = CheckExactAndCountCells(s);
  for (auto _ : state) {
    std::unique_ptr<FactTable> facts;
    auto store = RematerializeOnce(s, &facts);
    benchmark::DoNotOptimize(store->num_views());
  }
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["facts"] = static_cast<double>(s.base_facts->size());
  state.counters["spillKB"] = 0.0;  // in-memory materialization
}
BENCHMARK(BM_FullRematerialize)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_FullRecomputeTD(benchmark::State& state) {
  const DeltaScenario& s = CachedScenario(static_cast<size_t>(state.range(0)));
  uint64_t spill_bytes = 0;
  uint64_t cells = 0;
  for (auto _ : state) {
    auto fresh = BuildFactTable(*s.db, s.query, *s.lattice);
    X3_CHECK(fresh.ok());
    // A quarter of the fact table: forces the TD sorts through the
    // external-sort spill path, the configuration BENCH_1 gates.
    MemoryBudget budget(
        std::max<size_t>(fresh->ApproxBytes() / 4, 16 * 1024));
    TempFileManager temp;
    ExecutionContext ctx(
        ExecutionContext::Options{&budget, &temp, nullptr, std::nullopt});
    CubeComputeOptions options;
    options.aggregate = AggregateFunction::kCount;
    options.properties = &s.properties;
    options.exec = &ctx;
    auto cube =
        ComputeCube(CubeAlgorithm::kTDCust, *fresh, *s.lattice, options);
    X3_CHECK(cube.ok()) << cube.status();
    spill_bytes = ctx.costs().spill_bytes.value();
    cells = cube->TotalCells();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["spillKB"] = static_cast<double>(spill_bytes) / 1024.0;
}
BENCHMARK(BM_FullRecomputeTD)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace x3

int main(int argc, char** argv) {
  return x3::bench::RunRegisteredBenchmarks(argc, argv);
}
