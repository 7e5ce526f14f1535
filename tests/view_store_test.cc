#include <gtest/gtest.h>

// Sanitizer runtimes bring allocators of their own that do not feed
// glibc's mallinfo2, so the heap probe runs only in plain glibc builds.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#define X3_HEAP_PROBE 1
#include <malloc.h>
#endif

#include <atomic>
#include <thread>
#include <vector>

#include "cube/algorithm.h"
#include "cube/view_store.h"
#include "gen/workload.h"

namespace x3 {
namespace {

/// Reference cells of one cuboid over `facts`.
CellMap ReferenceCells(const FactTable& facts, const CubeLattice& lattice,
                       CuboidId cuboid) {
  auto cube = ComputeCube(CubeAlgorithm::kReference, facts, lattice,
                          {AggregateFunction::kCount});
  EXPECT_TRUE(cube.ok());
  return cube->cuboid(cuboid);
}

CellMap ReferenceCells(const Workload& workload, CuboidId cuboid) {
  return ReferenceCells(workload.facts, workload.lattice, cuboid);
}

bool CellsEqual(const CellMap& a, const CellMap& b) {
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

// Shared-cache shape for the TSan lane: readers answering every cuboid
// from the views while a writer evicts and re-materializes the finest
// view. Readers pick a view under the store's lock and project it after
// releasing it, so a projection can outlive the view's eviction: it
// holds the immutable view itself. Every answer is cell-exact, or
// NotFound when no usable view is published at that moment.
TEST_P(ViewStoreTest, ConcurrentAnswerAndMaterializeStayExact) {
  Build(false, false);
  CuboidId finest = workload_->lattice.FinestCuboid();
  ASSERT_TRUE(store_->Materialize(finest, /*with_fact_ids=*/true).ok());
  const size_t n = workload_->lattice.num_cuboids();
  // Reference cells computed up front (ReferenceCells is not part of
  // the store and is not meant to be hammered concurrently).
  std::vector<CellMap> expected;
  expected.reserve(n);
  for (CuboidId target = 0; target < n; ++target) {
    expected.push_back(ReferenceCells(*workload_, target));
  }
  std::vector<CuboidId> ancestors =
      workload_->lattice.MoreRelaxedNeighbors(finest);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (CuboidId c : ancestors) {
      ASSERT_TRUE(store_->Materialize(c, /*with_fact_ids=*/true).ok());
    }
    for (int round = 0; round < 20; ++round) {
      EXPECT_TRUE(store_->Evict(finest));
      ASSERT_TRUE(store_->Materialize(finest, /*with_fact_ids=*/true).ok());
    }
    done.store(true);
  });
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      do {
        for (size_t i = 0; i < n; ++i) {
          const CuboidId target = (r + i) % n;
          ViewComputeStats stats;
          auto cells = store_->AnswerFromViews(
              target, AggregateFunction::kCount, &workload_->properties,
              &stats);
          if (!cells.ok()) {
            EXPECT_EQ(cells.status().code(), StatusCode::kNotFound);
            continue;
          }
          EXPECT_TRUE(CellsEqual(*cells, expected[target]))
              << "cuboid " << target << " via "
              << ViewStrategyToString(stats.strategy);
        }
      } while (!done.load());
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(store_->Contains(finest));
  EXPECT_GE(store_->num_views(), 1u + ancestors.size());
}

// A delta never reaches a store that shares the view it patches: store
// B shares A's finest view (CloneViewFrom), and ApplyDelta on B
// publishes a patched copy in B alone. A keeps answering over the old
// facts, B over the grown ones.
TEST_P(ViewStoreTest, DeltaOnSharedViewLeavesSourceStoreUntouched) {
  Build(false, false);
  const CubeLattice& lattice = workload_->lattice;
  const FactTable& old_facts = workload_->facts;
  CuboidId finest = lattice.FinestCuboid();

  // The grown table: every fifth old fact again, and every third of
  // those also binds a value no old fact has, so the delta both updates
  // old cells and adds new ones.
  FactTable grown = old_facts.Clone();
  grown.ReopenForAppend();
  const ValueId fresh = grown.InternAxisValue(0, "delta-only-value");
  for (size_t f = 0; f < old_facts.size(); f += 5) {
    grown.BeginFact(old_facts.size() + f, old_facts.measure(f));
    for (size_t axis = 0; axis < old_facts.num_axes(); ++axis) {
      auto masks = old_facts.BindingMasks(axis, f);
      auto values = old_facts.BindingValues(axis, f);
      for (size_t b = 0; b < masks.size(); ++b) {
        grown.AddBinding(axis, masks[b], values[b]);
      }
      if (axis == 0 && f % 3 == 0 && !masks.empty()) {
        grown.AddBinding(axis, masks[0], fresh);
      }
    }
  }
  grown.Finish();
  ASSERT_GT(grown.size(), old_facts.size());

  CubeViewStore a(&old_facts, &lattice);
  CubeViewStore b(&grown, &lattice);
  ASSERT_TRUE(a.Materialize(finest, /*with_fact_ids=*/true).ok());
  const size_t a_bytes = a.ViewApproxBytes(finest);
  ASSERT_TRUE(b.CloneViewFrom(a, finest).ok());
  EXPECT_EQ(b.ViewApproxBytes(finest), a_bytes);
  uint64_t touched = 0;
  ASSERT_TRUE(b.ApplyDelta(finest, old_facts.size(), &touched).ok());
  EXPECT_GT(touched, 0u);
  EXPECT_EQ(a.ViewApproxBytes(finest), a_bytes);

  for (CuboidId target = 0; target < lattice.num_cuboids(); ++target) {
    auto before = a.AnswerFromViews(target, AggregateFunction::kCount);
    auto after = b.AnswerFromViews(target, AggregateFunction::kCount);
    ASSERT_TRUE(before.ok() && after.ok()) << "cuboid " << target;
    EXPECT_TRUE(
        CellsEqual(*before, ReferenceCells(old_facts, lattice, target)))
        << "source store, cuboid " << target;
    EXPECT_TRUE(CellsEqual(*after, ReferenceCells(grown, lattice, target)))
        << "patched store, cuboid " << target;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewStoreTest, ::testing::Values(0, 1, 2));

// The cuboid cache evicts by ViewApproxBytes, so the count is the
// view's true heap: within 5% of what one Materialize leaves allocated
// (heap and mmapped chunks both), for a view with fact ids and one
// without.
TEST(ViewStoreBytesTest, ViewApproxBytesMatchesHeap) {
#ifndef X3_HEAP_PROBE
  GTEST_SKIP() << "the allocator does not report its bytes in use";
#else
  auto heap_in_use = [] {
    struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  auto workload = BuildDblpWorkload(5000, 4);
  ASSERT_TRUE(workload.ok());
  const CuboidId finest = workload->lattice.FinestCuboid();
  for (bool with_ids : {true, false}) {
    CubeViewStore store(&workload->facts, &workload->lattice);
    malloc_trim(0);
    const size_t before = heap_in_use();
    ASSERT_TRUE(store.Materialize(finest, with_ids).ok());
    const double heap = static_cast<double>(heap_in_use() - before);
    const double counted =
        static_cast<double>(store.ViewApproxBytes(finest));
    EXPECT_NEAR(counted / heap, 1.0, 0.05)
        << (with_ids ? "id view" : "id-less view") << ": counted "
        << counted << " bytes, heap grew by " << heap;
  }
#endif
}

}  // namespace
}  // namespace x3
