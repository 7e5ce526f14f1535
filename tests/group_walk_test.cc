// The group-walk kernel (cube/group_walk.h), checked against an
// independent brute-force cross product (a std::set of tuples) over
// seeded random fact tables, plus the cases the sweep must reach: the
// apex, single-value axes and uncovered axes under both policies.

#include "cube/group_walk.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cube/cube_spec.h"
#include "util/logging.h"
#include "util/random.h"

namespace x3 {
namespace {

using Tuple = std::vector<ValueId>;

/// Three axes; the first and last have several present states (PC-AD
/// and SP relaxations), the middle one only rigid and absent.
CubeLattice TestLattice() {
  CubeQuery query;
  query.fact_path = "//f";
  query.axes.push_back({"a", "/p/a", RelaxationSet::All(), {}});
  query.axes.push_back(
      {"b", "/b", RelaxationSet::Of({RelaxationType::kLND}), {}});
  query.axes.push_back({"c", "/q/c", RelaxationSet::All(), {}});
  Result<CubeLattice> lattice = BuildCubeLattice(query);
  X3_CHECK(lattice.ok()) << lattice.status();
  return std::move(*lattice);
}

CuboidId ApexOf(const CubeLattice& lattice) {
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    if (lattice.PresentAxes(c).empty()) return c;
  }
  X3_CHECK(false) << "lattice has no apex";
  return 0;
}

/// Interns "v<value>" on `axis` and binds it at `mask`.
void Bind(FactTable* facts, size_t axis, AxisStateMask mask, int value) {
  facts->AddBinding(axis, mask,
                    facts->InternAxisValue(axis, "v" + std::to_string(value)));
}

/// The groups of `fact` in `cuboid`, built from the raw binding columns
/// with no code shared with the kernel.
std::set<Tuple> BruteForceGroups(const FactTable& facts,
                                 const CubeLattice& lattice, CuboidId cuboid,
                                 size_t fact, UncoveredAxis uncovered) {
  std::set<Tuple> groups{Tuple{}};
  for (size_t a = 0; a < lattice.num_axes(); ++a) {
    AxisStateId s = lattice.StateOf(cuboid, a);
    if (!lattice.axis(a).state(s).grouping_present()) continue;
    std::set<ValueId> values;
    std::span<const AxisStateMask> masks = facts.BindingMasks(a, fact);
    std::span<const ValueId> bound = facts.BindingValues(a, fact);
    for (size_t i = 0; i < masks.size(); ++i) {
      if ((masks[i] >> s) & 1u) values.insert(bound[i]);
    }
    if (values.empty()) {
      if (uncovered == UncoveredAxis::kDropFact) return {};
      values.insert(kNullKeyField);
    }
    std::set<Tuple> next;
    for (const Tuple& prefix : groups) {
      for (ValueId v : values) {
        Tuple t = prefix;
        t.push_back(v);
        next.insert(t);
      }
    }
    groups = std::move(next);
  }
  return groups;
}

std::vector<GroupKey> WalkKeys(GroupWalk* walk, const FactTable& facts,
                               size_t fact) {
  std::vector<GroupKey> keys;
  walk->ForEachGroup(facts, fact,
                     [&](const GroupKey& key) { keys.push_back(key); });
  return keys;
}

TEST(GroupWalkTest, ApexYieldsOneEmptyKeyPerFact) {
  CubeLattice lattice = TestLattice();
  FactTable facts(lattice.num_axes());
  facts.BeginFact(0, 1);  // no binding on any axis
  facts.BeginFact(1, 1);
  Bind(&facts, 0, 0b1, 7);
  Bind(&facts, 0, 0b1, 8);
  facts.Finish();
  for (UncoveredAxis uncovered :
       {UncoveredAxis::kDropFact, UncoveredAxis::kNullGroup}) {
    GroupWalk walk(lattice, ApexOf(lattice), uncovered);
    EXPECT_EQ(walk.key_size(), 0u);
    for (size_t f = 0; f < facts.size(); ++f) {
      EXPECT_EQ(WalkKeys(&walk, facts, f), std::vector<GroupKey>{""});
    }
  }
}

TEST(GroupWalkTest, FirstPresentAxisVariesFastest) {
  CubeLattice lattice = TestLattice();
  FactTable facts(lattice.num_axes());
  facts.BeginFact(0, 1);
  Bind(&facts, 0, 0b1, 1);
  Bind(&facts, 0, 0b1, 2);
  Bind(&facts, 1, 0b1, 3);
  Bind(&facts, 2, 0b1, 4);
  Bind(&facts, 2, 0b1, 5);
  facts.Finish();
  std::vector<ValueId> a, b, c;
  facts.AdmittedValues(0, 0, 0, &a);
  facts.AdmittedValues(1, 0, 0, &b);
  facts.AdmittedValues(2, 0, 0, &c);
  GroupWalk walk(lattice, /*cuboid=*/0, UncoveredAxis::kDropFact);
  EXPECT_EQ(walk.key_size(), 3 * kKeyFieldBytes);
  std::vector<GroupKey> want;
  for (ValueId vc : c) {
    for (ValueId va : a) want.push_back(PackGroupKey(Tuple{va, b[0], vc}));
  }
  EXPECT_EQ(WalkKeys(&walk, facts, 0), want);
}

TEST(GroupWalkTest, UncoveredAxisDropsTheFactOrJoinsTheNullGroup) {
  CubeLattice lattice = TestLattice();
  FactTable facts(lattice.num_axes());
  facts.BeginFact(0, 1);
  Bind(&facts, 0, 0b1, 1);
  Bind(&facts, 0, 0b1, 2);
  Bind(&facts, 2, 0b1, 3);  // nothing on axis 1
  facts.Finish();
  std::vector<ValueId> a;
  facts.AdmittedValues(0, 0, 0, &a);

  GroupWalk drop(lattice, /*cuboid=*/0, UncoveredAxis::kDropFact);
  EXPECT_TRUE(WalkKeys(&drop, facts, 0).empty());

  GroupWalk nulls(lattice, /*cuboid=*/0, UncoveredAxis::kNullGroup);
  ValueId c = facts.BindingValues(2, 0)[0];
  std::vector<GroupKey> want{PackGroupKey(Tuple{a[0], kNullKeyField, c}),
                             PackGroupKey(Tuple{a[1], kNullKeyField, c})};
  std::vector<GroupKey> got = WalkKeys(&nulls, facts, 0);
  EXPECT_EQ(got, want);
  EXPECT_EQ(ReadKeyField(got[0].data() + kKeyFieldBytes), kNullKeyField);
}

class GroupWalkRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupWalkRandomTest, MatchesBruteForceCrossProduct) {
  CubeLattice lattice = TestLattice();
  Random rng(GetParam());
  FactTable facts(lattice.num_axes());
  for (size_t f = 0; f < 60; ++f) {
    facts.BeginFact(f, static_cast<int64_t>(rng.Uniform(10)));
    for (size_t a = 0; a < lattice.num_axes(); ++a) {
      size_t num_states = lattice.axis(a).num_states();
      // 0-3 bindings over a domain of 1-4 values: uncovered axes,
      // single values and overlaps all occur.
      int domain = 1 + static_cast<int>(rng.Uniform(4));
      for (size_t n = rng.Uniform(4); n > 0; --n) {
        AxisStateMask mask = rng.Uniform(AxisStateMask{1} << num_states);
        Bind(&facts, a, mask, static_cast<int>(rng.Uniform(domain)));
      }
    }
  }
  facts.Finish();

  // Per-(axis, state) lists as COUNTER gathers them for its pass.
  std::vector<std::vector<std::vector<ValueId>>> lists(lattice.num_axes());
  for (size_t a = 0; a < lattice.num_axes(); ++a) {
    lists[a].resize(lattice.axis(a).num_states());
  }
  size_t apex_walks = 0, single_value_axes = 0, uncovered_axes = 0;
  for (CuboidId cuboid = 0; cuboid < lattice.num_cuboids(); ++cuboid) {
    std::vector<size_t> present = lattice.PresentAxes(cuboid);
    for (UncoveredAxis uncovered :
         {UncoveredAxis::kDropFact, UncoveredAxis::kNullGroup}) {
      GroupWalk walk(lattice, cuboid, uncovered);
      for (size_t f = 0; f < facts.size(); ++f) {
        SCOPED_TRACE(testing::Message() << "cuboid " << cuboid << " fact "
                                        << f << " null groups "
                                        << (uncovered ==
                                            UncoveredAxis::kNullGroup));
        std::set<GroupKey> want;
        for (const Tuple& t :
             BruteForceGroups(facts, lattice, cuboid, f, uncovered)) {
          want.insert(PackGroupKey(t));
        }
        std::vector<GroupKey> keys = WalkKeys(&walk, facts, f);
        // Each group exactly once, byte-equal to PackGroupKey.
        EXPECT_EQ(keys.size(), want.size());
        EXPECT_EQ(std::set<GroupKey>(keys.begin(), keys.end()), want);
        for (const GroupKey& key : keys) {
          EXPECT_EQ(key.size(), walk.key_size());
        }

        for (size_t a = 0; a < lattice.num_axes(); ++a) {
          for (AxisStateId s = 0; s < lattice.axis(a).num_states(); ++s) {
            facts.AdmittedValues(a, f, s, &lists[a][s]);
          }
        }
        std::vector<GroupKey> from_lists;
        walk.ForEachGroup(lists, [&](const GroupKey& key) {
          from_lists.push_back(key);
        });
        EXPECT_EQ(from_lists, keys);

        if (present.empty()) ++apex_walks;
        for (size_t a : present) {
          size_t n = lists[a][lattice.StateOf(cuboid, a)].size();
          if (n == 1) ++single_value_axes;
          if (n == 0) ++uncovered_axes;
        }
      }
    }
  }
  EXPECT_GT(apex_walks, 0u);
  EXPECT_GT(single_value_axes, 0u);
  EXPECT_GT(uncovered_axes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupWalkRandomTest,
                         ::testing::Values(161, 162, 163));

}  // namespace
}  // namespace x3
