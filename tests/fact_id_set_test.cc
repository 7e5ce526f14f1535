// FactIdSet (util/fact_id_set.h): the roaring-style compressed fact-id
// set. Focus areas: the array->bitmap container boundary at 4096
// elements per 64K chunk, and seeded randomized membership sweeps
// checked against a std::set oracle.

#include "util/fact_id_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/metrics.h"
#include "util/random.h"

namespace x3 {
namespace {

TEST(FactIdSetTest, EmptySet) {
  FactIdSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.cardinality(), 0u);
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.Contains(123456));
  EXPECT_TRUE(set.ToVector().empty());
}

TEST(FactIdSetTest, AddContainsAndDuplicates) {
  FactIdSet set;
  set.Add(7);
  set.Add(70000);  // second 64K chunk
  set.Add(7);      // duplicate: no cardinality change
  EXPECT_EQ(set.cardinality(), 2u);
  EXPECT_TRUE(set.Contains(7));
  EXPECT_TRUE(set.Contains(70000));
  EXPECT_FALSE(set.Contains(8));
  EXPECT_FALSE(set.Contains(70001));
}

TEST(FactIdSetTest, OutOfOrderInsertsIterateAscending) {
  FactIdSet set;
  std::vector<uint32_t> ids = {5, 1, 200000, 3, 99999, 1, 65536, 65535};
  for (uint32_t id : ids) set.Add(id);
  EXPECT_EQ(set.ToVector(),
            (std::vector<uint32_t>{1, 3, 5, 65535, 65536, 99999, 200000}));
}

TEST(FactIdSetTest, FromIdsMatchesIncrementalAdds) {
  std::vector<uint32_t> ids = {42, 1, 42, 100000, 0};
  FactIdSet from_ids = FactIdSet::FromIds(ids);
  FactIdSet incremental;
  for (uint32_t id : ids) incremental.Add(id);
  EXPECT_EQ(from_ids, incremental);
  EXPECT_EQ(from_ids.cardinality(), 4u);
}

TEST(FactIdSetTest, ClearEmptiesTheSet) {
  FactIdSet set = FactIdSet::FromIds({1, 2, 3});
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(1));
}

// --- Container boundary at kArrayContainerMax (4096) ----------------------

TEST(FactIdSetTest, PromotionAtArrayContainerBoundary) {
  // 4096 elements stay an array container; the 4097th promotes the
  // chunk to an 8 KB bitmap — observable through ApproxBytes.
  FactIdSet set;
  for (uint32_t id = 0; id < FactIdSet::kArrayContainerMax; ++id) {
    set.Add(id * 2);  // spread within one chunk
  }
  EXPECT_EQ(set.cardinality(), FactIdSet::kArrayContainerMax);
  size_t array_bytes = set.ApproxBytes();
  EXPECT_LT(array_bytes, 8 * 1024 + 512);

  set.Add(60001);  // 4097th distinct id in the chunk
  EXPECT_EQ(set.cardinality(), FactIdSet::kArrayContainerMax + 1);
  EXPECT_GE(set.ApproxBytes(), 8 * 1024u);

  // Everything added before the promotion is still present, in order.
  for (uint32_t id = 0; id < FactIdSet::kArrayContainerMax; ++id) {
    ASSERT_TRUE(set.Contains(id * 2)) << id * 2;
  }
  EXPECT_TRUE(set.Contains(60001));
  std::vector<uint32_t> flat = set.ToVector();
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end()));
  EXPECT_EQ(flat.size(), set.cardinality());
}

// --- Seeded randomized sweeps vs std::set oracle ---------------------------

class FactIdSetRandomTest : public ::testing::TestWithParam<uint64_t> {};

/// Draws a random set whose density per chunk varies enough to produce
/// both container kinds and boundary-straddling cardinalities.
std::set<uint32_t> RandomOracle(Random* rng, size_t max_size,
                                uint32_t universe) {
  std::set<uint32_t> oracle;
  size_t size = rng->Uniform(max_size + 1);
  for (size_t i = 0; i < size; ++i) {
    oracle.insert(static_cast<uint32_t>(rng->Uniform(universe)));
  }
  return oracle;
}

TEST_P(FactIdSetRandomTest, ContainsMatchesOracle) {
  Random rng(GetParam() + 2000);
  std::set<uint32_t> oracle = RandomOracle(&rng, 6000, 100000);
  FactIdSet set = FactIdSet::FromIds(
      std::vector<uint32_t>(oracle.begin(), oracle.end()));
  for (int probe = 0; probe < 2000; ++probe) {
    uint32_t id = static_cast<uint32_t>(rng.Uniform(100000));
    ASSERT_EQ(set.Contains(id), oracle.count(id) > 0) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactIdSetRandomTest,
                         ::testing::Values(0x5e71, 0x5e72, 0x5e73));

TEST(FactIdSetTest, OpsFeedMetricRegistry) {
  Counter* promotions = MetricRegistry::Global().GetCounter(
      "x3_factset_container_promotions_total",
      "FactIdSet array containers promoted to bitmaps");
  uint64_t promotions_before = promotions->value();
  FactIdSet set;
  for (uint32_t id = 0; id <= FactIdSet::kArrayContainerMax; ++id) {
    set.Add(id);
  }
  EXPECT_EQ(promotions->value(), promotions_before + 1);
}

}  // namespace
}  // namespace x3
