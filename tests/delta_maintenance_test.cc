// Differential test for delta cube maintenance: seeded random insert
// batches over DBLP- and Treebank-shaped databases, with the
// delta-maintained view store compared cell-for-cell against a full
// recompute after every batch. Three scenarios pin the safety policy:
// clean data under truthful properties must merge id-less views in
// place (kMerge); a delta that silently breaks a property the stored
// LatticeProperties still assert (a second author appearing after the
// properties were computed) must force the per-fact guard onto
// kRecompute; and id-carrying views must absorb any batch exactly
// (kMergeWithIds). On top of the view-store check, the appended fact
// table must be indistinguishable from a from-scratch build for all
// nine cube variants at parallelism 1, 2 and hardware — including the
// deliberately unsafe ones, whose (deterministically wrong) output
// must not depend on whether the table grew by append or rebuild. The
// last batch evicts one planned merge view between plan and apply, as a
// reader's cache insert can during a commit: the apply skips that view.
// Runs in the tsan CI lane.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cube/algorithm.h"
#include "cube/cube_spec.h"
#include "cube/delta.h"
#include "cube/view_store.h"
#include "schema/summarizability.h"
#include "storage/temp_file.h"
#include "util/exec.h"
#include "util/memory_budget.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "x3/engine.h"
#include "xdb/database.h"

namespace x3 {
namespace {

constexpr const char* kDblpQuery = R"(
for $a in doc("dblp.xml")//article,
    $n in $a/author/name,
    $y in $a/year
X^3 $a by $n (LND), $y (LND)
return COUNT($a))";

constexpr const char* kTreebankQuery = R"(
for $s in doc("corpus.xml")//sentence,
    $n in $s/np/noun,
    $v in $s/vp/verb
X^3 $s by $n (LND), $v (LND)
return COUNT($s))";

/// DBLP-shaped document: a handful of articles. `overlap` permits
/// multi-author articles (breaking disjointness on the name axis),
/// `holes` permits year-less articles (breaking coverage). With both
/// false every article binds exactly one value per axis.
std::string MakeArticleDoc(Random& rng, bool overlap, bool holes) {
  std::string xml = "<database>";
  size_t articles = 1 + rng.UniformRange(0, 2);
  for (size_t i = 0; i < articles; ++i) {
    xml += "<article>";
    size_t authors = overlap && rng.Bernoulli(0.6) ? 2 : 1;
    for (size_t a = 0; a < authors; ++a) {
      xml += "<author><name>author";
      xml += std::to_string(rng.UniformRange(0, 8));
      xml += "</name></author>";
    }
    if (!holes || rng.Bernoulli(0.7)) {
      xml += "<year>";
      xml += std::to_string(2000 + rng.UniformRange(0, 5));
      xml += "</year>";
    }
    xml += "</article>";
  }
  xml += "</database>";
  return xml;
}

/// Treebank-shaped document: sentences with noun/verb constituents.
/// Sentences may carry several nouns (overlap on the noun axis) and
/// may lack a verb (coverage hole on the verb axis).
std::string MakeSentenceDoc(Random& rng) {
  static const char* kNouns[] = {"cat", "dog", "tree", "river", "book"};
  static const char* kVerbs[] = {"runs", "falls", "grows"};
  std::string xml = "<corpus>";
  size_t sentences = 1 + rng.UniformRange(0, 2);
  for (size_t i = 0; i < sentences; ++i) {
    xml += "<sentence><np>";
    size_t nouns = 1 + (rng.Bernoulli(0.4) ? 1 : 0);
    for (size_t n = 0; n < nouns; ++n) {
      xml += "<noun>";
      xml += kNouns[rng.UniformRange(0, std::size(kNouns) - 1)];
      xml += "</noun>";
    }
    xml += "</np><vp>";
    if (rng.Bernoulli(0.8)) {
      xml += "<verb>";
      xml += kVerbs[rng.UniformRange(0, std::size(kVerbs) - 1)];
      xml += "</verb>";
    }
    xml += "</vp></sentence>";
  }
  xml += "</corpus>";
  return xml;
}

std::vector<size_t> ParallelismLevels() {
  std::vector<size_t> levels = {1, 2};
  size_t hw = ThreadPool::DefaultConcurrency();
  if (hw != 1 && hw != 2) levels.push_back(hw);
  return levels;
}

/// For every registered variant at every parallelism level, the
/// appended fact table must produce a cube identical to the
/// from-scratch one — append+Finish is byte-equivalent to a single
/// build, so even the unsafe variants' deterministic output may not
/// differ between the two tables.
void ExpectAllVariantsAgree(const FactTable& appended, const FactTable& fresh,
                            const CubeLattice& lattice,
                            const LatticeProperties& properties,
                            const std::string& label) {
  ASSERT_EQ(appended.size(), fresh.size()) << label;
  for (CubeAlgorithm algo : kAllCubeAlgorithms) {
    for (size_t parallelism : ParallelismLevels()) {
      auto compute = [&](const FactTable& facts) -> Result<CubeResult> {
        MemoryBudget budget;
        TempFileManager temp;
        ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
        CubeComputeOptions options;
        options.aggregate = AggregateFunction::kCount;
        options.properties = &properties;
        options.exec = &ctx;
        options.parallelism = parallelism;
        Result<CubeResult> r = ComputeCube(algo, facts, lattice, options);
        EXPECT_EQ(budget.used(), 0u)
            << label << " " << CubeAlgorithmToString(algo);
        return r;
      };
      auto from_appended = compute(appended);
      auto from_fresh = compute(fresh);
      ASSERT_TRUE(from_appended.ok() && from_fresh.ok())
          << label << " " << CubeAlgorithmToString(algo) << " p"
          << parallelism << ": " << from_appended.status() << " / "
          << from_fresh.status();
      std::string diff;
      EXPECT_TRUE(from_appended->Equals(*from_fresh, &diff))
          << label << " " << CubeAlgorithmToString(algo) << " p"
          << parallelism << ": appended table diverges from rebuild: "
          << diff;
    }
  }
}

struct Scenario {
  std::string name;
  const char* query_text;
  /// Emits one document; `delta` marks batch (vs base) documents.
  std::string (*make_doc)(Random& rng, bool delta);
  /// kMerge needs properties that assert safety; kRecompute scenarios
  /// either assume nothing or rely on the per-delta-fact guard.
  bool assume_all = false;
  bool expect_merge = false;
  bool expect_recompute = false;
};

std::string CleanDblpDoc(Random& rng, bool) {
  return MakeArticleDoc(rng, /*overlap=*/false, /*holes=*/false);
}

/// Base documents are clean — so AssumeAll is truthful when the
/// properties are computed — but every batch contains at least one
/// two-author article, which the planner must catch per delta fact.
std::string StaleDblpDoc(Random& rng, bool delta) {
  if (!delta) return MakeArticleDoc(rng, false, false);
  std::string xml = MakeArticleDoc(rng, true, false);
  const std::string two_authors =
      "<article><author><name>authorX</name></author>"
      "<author><name>authorY</name></author><year>2004</year></article>";
  xml.insert(xml.size() - std::string("</database>").size(), two_authors);
  return xml;
}

std::string TreebankDoc(Random& rng, bool) { return MakeSentenceDoc(rng); }

class DeltaMaintenanceTest : public ::testing::TestWithParam<uint64_t> {};

void RunScenario(const Scenario& scenario, uint64_t seed) {
  const std::string label = scenario.name + "/seed" + std::to_string(seed);
  Random rng(seed);

  auto db_or = Database::Open({});
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  Database& db = **db_or;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        db.LoadXmlString(scenario.make_doc(rng, /*delta=*/false)).ok());
  }

  X3Engine engine(&db);
  auto query = engine.Compile(scenario.query_text);
  ASSERT_TRUE(query.ok()) << label << ": " << query.status();
  auto prepared = engine.Prepare(*query);
  ASSERT_TRUE(prepared.ok()) << label << ": " << prepared.status();
  // The lattice outlives every store below; the fact table is swapped
  // per batch, so it lives behind a pointer of its own.
  CubeLattice lattice = std::move(prepared->lattice);
  auto facts = std::make_unique<FactTable>(std::move(prepared->facts));
  ASSERT_GT(facts->size(), 0u) << label;

  LatticeProperties properties = scenario.assume_all
                                     ? LatticeProperties::AssumeAll(lattice)
                                     : LatticeProperties::AssumeNothing(lattice);

  // Materialize every cuboid, alternating id-less and id-carrying so
  // both delta policies are exercised in the same plan.
  auto store = std::make_unique<CubeViewStore>(facts.get(), &lattice);
  std::vector<CuboidId> cuboids = lattice.TopoOrder();
  ASSERT_GE(cuboids.size(), 2u) << label;
  for (size_t i = 0; i < cuboids.size(); ++i) {
    ASSERT_TRUE(store->Materialize(cuboids[i], /*with_fact_ids=*/i % 2 == 1)
                    .ok())
        << label;
  }

  bool saw_merge = false, saw_merge_with_ids = false, saw_recompute = false;
  constexpr size_t kRounds = 3;
  for (size_t round = 0; round < kRounds; ++round) {
    const std::string round_label = label + "/round" + std::to_string(round);

    // Commit one transactional batch of 1–2 documents.
    NodeId first_new_node = db.node_count();
    ASSERT_TRUE(db.BeginBatch().ok()) << round_label;
    size_t docs = 1 + rng.UniformRange(0, 1);
    for (size_t d = 0; d < docs; ++d) {
      ASSERT_TRUE(
          db.LoadXmlString(scenario.make_doc(rng, /*delta=*/true)).ok())
          << round_label;
    }
    auto lsn = db.CommitBatch();
    ASSERT_TRUE(lsn.ok()) << round_label << ": " << lsn.status();

    // Delta path: clone, append only the new facts, plan, apply.
    auto appended = std::make_unique<FactTable>(facts->Clone());
    auto appended_count =
        AppendNewFacts(db, *query, lattice, first_new_node, appended.get());
    ASSERT_TRUE(appended_count.ok())
        << round_label << ": " << appended_count.status();
    ASSERT_GT(*appended_count, 0u)
        << round_label << ": batch produced no facts";

    size_t first_new_fact = facts->size();
    auto next = std::make_unique<CubeViewStore>(appended.get(), &lattice);
    DeltaPlan plan =
        PlanViewDeltas(*store, *appended, lattice, properties, first_new_fact);
    ASSERT_EQ(plan.steps.size(), cuboids.size()) << round_label;
    EXPECT_EQ(plan.first_new_fact, first_new_fact) << round_label;
    EXPECT_FALSE(ExplainDeltaPlan(plan, lattice).empty()) << round_label;

    // Last round: a reader's cache insert evicts one planned merge view
    // between plan and apply. The apply must skip that view, not fail.
    std::optional<CuboidId> evicted;
    if (round == kRounds - 1) {
      for (const ViewDeltaStep& step : plan.steps) {
        if (step.action != DeltaAction::kRecompute) {
          evicted = step.cuboid;
          break;
        }
      }
      ASSERT_TRUE(evicted.has_value()) << round_label;
      ASSERT_TRUE(store->Evict(*evicted)) << round_label;
    }
    const size_t kept = plan.steps.size() - (evicted.has_value() ? 1 : 0);
    DeltaStats stats;
    Status applied = ApplyViewDeltas(*store, next.get(), plan, &stats);
    ASSERT_TRUE(applied.ok()) << round_label << ": " << applied;
    EXPECT_EQ(stats.views_patched + stats.views_recomputed, kept)
        << round_label;
    EXPECT_EQ(next->num_views(), kept) << round_label;

    for (const ViewDeltaStep& step : plan.steps) {
      switch (step.action) {
        case DeltaAction::kMerge: saw_merge = true; break;
        case DeltaAction::kMergeWithIds: saw_merge_with_ids = true; break;
        case DeltaAction::kRecompute: saw_recompute = true; break;
      }
    }

    // Oracle: rebuild the fact table from the post-batch database and
    // materialize every cuboid from scratch. Every delta-maintained
    // view must answer with exactly the recomputed cells.
    auto fresh = BuildFactTable(db, *query, lattice);
    ASSERT_TRUE(fresh.ok()) << round_label << ": " << fresh.status();
    CubeViewStore fresh_store(&*fresh, &lattice);
    for (const ViewDeltaStep& step : plan.steps) {
      if (step.cuboid == evicted) {
        EXPECT_FALSE(next->Contains(step.cuboid)) << round_label;
        continue;
      }
      ASSERT_TRUE(next->Contains(step.cuboid)) << round_label;
      ASSERT_TRUE(
          fresh_store.Materialize(step.cuboid, /*with_fact_ids=*/true).ok())
          << round_label;
      auto maintained =
          next->Answer(step.cuboid, AggregateFunction::kCount, &properties);
      auto recomputed = fresh_store.Answer(step.cuboid,
                                           AggregateFunction::kCount,
                                           &properties);
      ASSERT_TRUE(maintained.ok() && recomputed.ok()) << round_label;
      EXPECT_EQ(*maintained, *recomputed)
          << round_label << ": cuboid " << step.cuboid << " ("
          << DeltaActionToString(step.action)
          << ") diverges from full recompute";
    }

    ExpectAllVariantsAgree(*appended, *fresh, lattice, properties,
                           round_label);
    if (::testing::Test::HasFatalFailure()) return;

    facts = std::move(appended);
    store = std::move(next);
  }

  EXPECT_TRUE(saw_merge_with_ids)
      << label << ": no id-carrying view exercised kMergeWithIds";
  if (scenario.expect_merge) {
    EXPECT_TRUE(saw_merge) << label << ": safe id-less merge never taken";
  }
  if (scenario.expect_recompute) {
    EXPECT_TRUE(saw_recompute)
        << label << ": unsafe fallback (kRecompute) never taken";
  }
}

TEST_P(DeltaMaintenanceTest, CleanDblpMergesInPlace) {
  RunScenario({"dblp-clean", kDblpQuery, CleanDblpDoc, /*assume_all=*/true,
               /*expect_merge=*/true, /*expect_recompute=*/false},
              GetParam());
}

TEST_P(DeltaMaintenanceTest, StalePropertiesForceRecompute) {
  // Properties were truthful for the base corpus; the batch breaks
  // disjointness on the author axis, so the per-delta-fact guard must
  // reject the id-less merge even though the stored flags say "safe".
  RunScenario({"dblp-stale", kDblpQuery, StaleDblpDoc, /*assume_all=*/true,
               /*expect_merge=*/false, /*expect_recompute=*/true},
              GetParam());
}

TEST_P(DeltaMaintenanceTest, TreebankOverlapFallsBack) {
  RunScenario({"treebank", kTreebankQuery, TreebankDoc, /*assume_all=*/false,
               /*expect_merge=*/false, /*expect_recompute=*/true},
              GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaMaintenanceTest,
                         ::testing::Values(20260809u, 42u, 7u));

}  // namespace
}  // namespace x3
