#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cube/algorithm.h"
#include "cube/view_store.h"
#include "gen/workload.h"

namespace x3 {
namespace {

/// Reference cells of one cuboid.
std::unordered_map<GroupKey, AggregateState> ReferenceCells(
    const Workload& workload, CuboidId cuboid) {
  auto cube = ComputeCube(CubeAlgorithm::kReference, workload.facts,
                          workload.lattice, {AggregateFunction::kCount});
  EXPECT_TRUE(cube.ok());
  return cube->cuboid(cuboid);
}

bool CellsEqual(const std::unordered_map<GroupKey, AggregateState>& a,
                const std::unordered_map<GroupKey, AggregateState>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, state] : a) {
    auto it = b.find(key);
    if (it == b.end() || !(state == it->second)) return false;
  }
  return true;
}

class ViewStoreTest : public ::testing::TestWithParam<int> {
 protected:
  void Build(bool coverage, bool disjointness) {
    ExperimentSetting setting;
    setting.num_axes = 3;
    setting.num_trees = 250;
    setting.coverage_holds = coverage;
    setting.disjointness_holds = disjointness;
    setting.seed = 900 + static_cast<uint64_t>(GetParam());
    auto workload = BuildTreebankWorkload(setting);
    ASSERT_TRUE(workload.ok());
    workload_ = std::make_unique<Workload>(std::move(*workload));
    store_ = std::make_unique<CubeViewStore>(&workload_->facts,
                                             &workload_->lattice);
  }

  std::unique_ptr<Workload> workload_;
  std::unique_ptr<CubeViewStore> store_;
};

TEST_P(ViewStoreTest, ExactViewAnswersItsOwnCuboid) {
  Build(false, false);
  CuboidId finest = workload_->lattice.FinestCuboid();
  ASSERT_TRUE(store_->Materialize(finest, /*with_fact_ids=*/false).ok());
  ViewComputeStats stats;
  auto cells = store_->Answer(finest, AggregateFunction::kCount,
                              &workload_->properties, &stats);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(stats.strategy, ViewStrategy::kExact);
  EXPECT_TRUE(CellsEqual(*cells, ReferenceCells(*workload_, finest)));
}

TEST_P(ViewStoreTest, IdTrackingViewAnswersEveryCuboidCorrectly) {
  // Neither property holds: only the fact-id lists make roll-ups exact.
  Build(false, false);
  CuboidId finest = workload_->lattice.FinestCuboid();
  ASSERT_TRUE(store_->Materialize(finest, /*with_fact_ids=*/true).ok());
  for (CuboidId target = 0; target < workload_->lattice.num_cuboids();
       ++target) {
    ViewComputeStats stats;
    auto cells = store_->Answer(target, AggregateFunction::kCount,
                                &workload_->properties, &stats);
    ASSERT_TRUE(cells.ok());
    EXPECT_NE(stats.strategy, ViewStrategy::kBase)
        << "every cuboid is an LND-descendant of the finest";
    EXPECT_TRUE(CellsEqual(*cells, ReferenceCells(*workload_, target)))
        << "cuboid " << target << " via "
        << ViewStrategyToString(stats.strategy);
  }
}

TEST_P(ViewStoreTest, IdlessRollupUsedOnlyWhenSafe) {
  // Disjointness holds: id-less roll-ups are provably safe and chosen.
  Build(false, true);
  CuboidId finest = workload_->lattice.FinestCuboid();
  ASSERT_TRUE(store_->Materialize(finest, /*with_fact_ids=*/false).ok());
  size_t rollups = 0;
  for (CuboidId target = 0; target < workload_->lattice.num_cuboids();
       ++target) {
    ViewComputeStats stats;
    auto cells = store_->Answer(target, AggregateFunction::kCount,
                                &workload_->properties, &stats);
    ASSERT_TRUE(cells.ok());
    if (stats.strategy == ViewStrategy::kRollup) ++rollups;
    EXPECT_TRUE(CellsEqual(*cells, ReferenceCells(*workload_, target)))
        << "cuboid " << target;
  }
  EXPECT_GT(rollups, 0u);
}

TEST_P(ViewStoreTest, UnsafeIdlessViewFallsBackToBase) {
  // Disjointness fails and the view has no ids: the store must refuse
  // the roll-up and answer from base — still correctly.
  Build(false, false);
  CuboidId finest = workload_->lattice.FinestCuboid();
  ASSERT_TRUE(store_->Materialize(finest, /*with_fact_ids=*/false).ok());
  // Find a target with at least one axis dropped.
  std::vector<CuboidId> topo = workload_->lattice.TopoOrder();
  CuboidId target = topo.back();  // most relaxed
  ViewComputeStats stats;
  auto cells = store_->Answer(target, AggregateFunction::kCount,
                              &workload_->properties, &stats);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(stats.strategy, ViewStrategy::kBase);
  EXPECT_TRUE(CellsEqual(*cells, ReferenceCells(*workload_, target)));
}

TEST_P(ViewStoreTest, PrefersSmallerUsableView) {
  Build(true, true);
  const CubeLattice& lattice = workload_->lattice;
  CuboidId finest = lattice.FinestCuboid();
  // Materialize the finest and a one-axis-dropped ancestor; the smaller
  // ancestor should serve its own descendants.
  std::vector<CuboidId> mids = lattice.MoreRelaxedNeighbors(finest);
  ASSERT_FALSE(mids.empty());
  CuboidId mid = mids.front();
  ASSERT_TRUE(store_->Materialize(finest, false).ok());
  ASSERT_TRUE(store_->Materialize(mid, false).ok());

  // A descendant of mid (drop one more axis from mid).
  std::vector<CuboidId> deeper = lattice.MoreRelaxedNeighbors(mid);
  ASSERT_FALSE(deeper.empty());
  ViewComputeStats stats;
  auto cells = store_->Answer(deeper.front(), AggregateFunction::kCount,
                              &workload_->properties, &stats);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(stats.source_view, mid)
      << "the mid view is smaller and equally usable";
  EXPECT_TRUE(
      CellsEqual(*cells, ReferenceCells(*workload_, deeper.front())));
}

TEST_P(ViewStoreTest, ApproxBytesGrowsWithViews) {
  Build(true, true);
  EXPECT_EQ(store_->ApproxBytes(), 0u);
  ASSERT_TRUE(
      store_->Materialize(workload_->lattice.FinestCuboid(), true).ok());
  size_t with_one = store_->ApproxBytes();
  EXPECT_GT(with_one, 0u);
  ASSERT_TRUE(store_->Materialize(
                      workload_->lattice
                          .MoreRelaxedNeighbors(
                              workload_->lattice.FinestCuboid())
                          .front(),
                      true)
                  .ok());
  EXPECT_GT(store_->ApproxBytes(), with_one);
}

// Shared-cache shape for the TSan lane: concurrent Answer() readers
// racing a Materialize() writer on the same store. Every answer must
// still be exact — a reader sees the view map strictly before or
// strictly after a publication, never mid-insert.
TEST_P(ViewStoreTest, ConcurrentAnswerAndMaterializeStayExact) {
  Build(false, false);
  CuboidId finest = workload_->lattice.FinestCuboid();
  ASSERT_TRUE(store_->Materialize(finest, /*with_fact_ids=*/true).ok());
  const size_t n = workload_->lattice.num_cuboids();
  // Reference cells computed up front (ReferenceCells is not part of
  // the store and is not meant to be hammered concurrently).
  std::vector<std::unordered_map<GroupKey, AggregateState>> expected;
  expected.reserve(n);
  for (CuboidId target = 0; target < n; ++target) {
    expected.push_back(ReferenceCells(*workload_, target));
  }
  std::vector<CuboidId> ancestors =
      workload_->lattice.MoreRelaxedNeighbors(finest);
  std::thread writer([&] {
    for (CuboidId c : ancestors) {
      ASSERT_TRUE(store_->Materialize(c, /*with_fact_ids=*/true).ok());
    }
  });
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (CuboidId target = r % n; target < n; ++target) {
        ViewComputeStats stats;
        auto cells = store_->Answer(target, AggregateFunction::kCount,
                                    &workload_->properties, &stats);
        ASSERT_TRUE(cells.ok());
        EXPECT_TRUE(CellsEqual(*cells, expected[target]))
            << "cuboid " << target << " via "
            << ViewStrategyToString(stats.strategy);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(store_->Contains(finest));
  EXPECT_GE(store_->num_views(), 1u + ancestors.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewStoreTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace x3
