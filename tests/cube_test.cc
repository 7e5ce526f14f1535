#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "cube/algorithm.h"
#include "cube/cube_spec.h"
#include "cube/view_store.h"
#include "gen/treebank_gen.h"
#include "gen/workload.h"
#include "storage/temp_file.h"
#include "tests/test_helpers.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace x3 {
namespace {

using testutil::OpenFigure1Db;

// --- FactTable unit tests ---

TEST(FactTableTest, BuildAndAccess) {
  FactTable table(2);
  table.BeginFact(100, 5);
  ValueId v0 = table.InternAxisValue(0, "john");
  table.AddBinding(0, 0b01, v0);
  ValueId v1 = table.InternAxisValue(1, "2003");
  table.AddBinding(1, 0b11, v1);
  table.BeginFact(200, 7);
  table.AddBinding(0, 0b11, table.InternAxisValue(0, "jane"));
  table.Finish();

  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.fact_id(0), 100u);
  EXPECT_EQ(table.measure(1), 7);
  EXPECT_EQ(table.NumBindings(0, 0), 1u);
  EXPECT_EQ(table.NumBindings(1, 0), 1u);
  EXPECT_EQ(table.NumBindings(1, 1), 0u);  // coverage gap
  EXPECT_EQ(table.AxisCardinality(0), 2u);
  EXPECT_EQ(table.AxisValueName(0, v0), "john");
}

TEST(FactTableTest, DuplicateBindingsCollapseByValue) {
  FactTable table(1);
  table.BeginFact(1, 1);
  ValueId v = table.InternAxisValue(0, "x");
  ValueId w = table.InternAxisValue(0, "y");
  table.AddBinding(0, 0b001, v);
  table.AddBinding(0, 0b010, v);  // same value, different state
  table.AddBinding(0, 0b001, w);
  table.AddBinding(0, 0b101, v);  // overlaps the first mask at state 0
  table.Finish();
  // One binding per value, carrying the OR of its masks: the readers of
  // the columns never check for a repeated value.
  ASSERT_EQ(table.NumBindings(0, 0), 2u);
  EXPECT_EQ(table.BindingValues(0, 0)[0], v);
  EXPECT_EQ(table.BindingMasks(0, 0)[0], 0b111u);
  EXPECT_EQ(table.BindingMasks(0, 0)[1], 0b001u);
  std::vector<ValueId> values;
  table.AdmittedValues(0, 0, 0, &values);
  EXPECT_EQ(values, (std::vector<ValueId>{v, w}));
  for (AxisStateId s : {1, 2}) {
    table.AdmittedValues(0, 0, s, &values);
    EXPECT_EQ(values, std::vector<ValueId>{v}) << "state " << s;
  }
}

TEST(FactTableTest, AdmittedValuesFilterByState) {
  FactTable table(1);
  table.BeginFact(1, 1);
  table.AddBinding(0, 0b01, table.InternAxisValue(0, "rigid-only"));
  table.AddBinding(0, 0b10, table.InternAxisValue(0, "relaxed-only"));
  table.Finish();
  std::vector<ValueId> values;
  table.AdmittedValues(0, 0, 0, &values);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(table.AxisValueName(0, values[0]), "rigid-only");
  table.AdmittedValues(0, 0, 1, &values);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(table.AxisValueName(0, values[0]), "relaxed-only");
  table.AdmittedValues(0, 0, 5, &values);
  EXPECT_TRUE(values.empty());
}

TEST(GroupKeyTest, PackUnpackRoundTrip) {
  std::vector<ValueId> values{0, 1, 0xDEADBEEF, kInvalidValueId - 1};
  GroupKey key = PackGroupKey(values);
  EXPECT_EQ(key.size(), 16u);
  EXPECT_EQ(UnpackGroupKey(key), values);
  EXPECT_TRUE(PackGroupKey({}).empty());
}

TEST(GroupKeyTest, BytewiseOrderMatchesNumericOrder) {
  EXPECT_LT(PackGroupKey(std::vector<ValueId>{1}),
            PackGroupKey(std::vector<ValueId>{2}));
  EXPECT_LT(PackGroupKey(std::vector<ValueId>{255}),
            PackGroupKey(std::vector<ValueId>{256}));
}

TEST(AggregateTest, UpdateAndFinalize) {
  AggregateState s;
  s.Update(5);
  s.Update(-3);
  s.Update(10);
  EXPECT_EQ(s.Value(AggregateFunction::kCount), 3.0);
  EXPECT_EQ(s.Value(AggregateFunction::kSum), 12.0);
  EXPECT_EQ(s.Value(AggregateFunction::kMin), -3.0);
  EXPECT_EQ(s.Value(AggregateFunction::kMax), 10.0);
  EXPECT_DOUBLE_EQ(s.Value(AggregateFunction::kAvg), 4.0);
}

TEST(AggregateTest, MergeEqualsCombinedUpdates) {
  AggregateState a, b, all;
  for (int v : {1, 7, -2}) {
    a.Update(v);
    all.Update(v);
  }
  for (int v : {100, 3}) {
    b.Update(v);
    all.Update(v);
  }
  a.Merge(b);
  EXPECT_TRUE(a == all);
}

TEST(AggregateTest, ParseNames) {
  EXPECT_EQ(*ParseAggregateFunction("count"), AggregateFunction::kCount);
  EXPECT_EQ(*ParseAggregateFunction("SUM"), AggregateFunction::kSum);
  EXPECT_FALSE(ParseAggregateFunction("median").ok());
}

TEST(ValueTransformTest, Apply) {
  EXPECT_EQ(ValueTransform::Identity().Apply("Hello"), "Hello");
  EXPECT_EQ(ValueTransform::Prefix(1).Apply("Hello"), "H");
  EXPECT_EQ(ValueTransform::Prefix(3).Apply("Hello"), "Hel");
  EXPECT_EQ(ValueTransform::Prefix(10).Apply("Hi"), "Hi");
  EXPECT_EQ(ValueTransform::Prefix(2).Apply(""), "");
  EXPECT_EQ(ValueTransform::Lowercase().Apply("MiXeD 123"), "mixed 123");
}

TEST(MeasurePathTest, MissingAndNonNumericMeasures) {
  auto db = testutil::OpenDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->LoadXmlString(R"(
      <shop>
        <item><c>a</c><price>10</price></item>
        <item><c>a</c></item>
        <item><c>b</c><price>oops</price></item>
      </shop>)")
                  .ok());
  CubeQuery query;
  query.fact_path = "//item";
  query.axes.push_back(
      {"c", "/c", RelaxationSet::Of({RelaxationType::kLND}), {}});
  query.aggregate = AggregateFunction::kSum;
  query.measure_path = "/price";
  auto lattice = BuildCubeLattice(query);
  ASSERT_TRUE(lattice.ok());
  auto facts = BuildFactTable(*db, query, *lattice);
  ASSERT_TRUE(facts.ok());
  ASSERT_EQ(facts->size(), 3u);
  EXPECT_EQ(facts->measure(0), 10);
  EXPECT_EQ(facts->measure(1), 1);  // no price: default measure
  EXPECT_EQ(facts->measure(2), 0);  // non-numeric parses to 0
}

TEST(ViewStrategyNamesTest, AllNamed) {
  EXPECT_STREQ(ViewStrategyToString(ViewStrategy::kExact), "exact");
  EXPECT_STREQ(ViewStrategyToString(ViewStrategy::kRollup), "rollup");
  EXPECT_STREQ(ViewStrategyToString(ViewStrategy::kRollupWithIds),
               "rollup+ids");
  EXPECT_STREQ(ViewStrategyToString(ViewStrategy::kBase), "base");
}

// --- End-to-end on the paper's Figure 1 ---

class Figure1CubeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenFigure1Db();
    ASSERT_NE(db_, nullptr);
    query_.fact_path = "//publication";
    query_.axes.push_back(
        {"n", "/author/name", RelaxationSet::All(), {}});
    query_.axes.push_back(
        {"p", "//publisher/@id",
         RelaxationSet::Of({RelaxationType::kLND, RelaxationType::kPCAD}),
         {}});
    query_.axes.push_back(
        {"y", "/year", RelaxationSet::Of({RelaxationType::kLND}), {}});
    auto lattice = BuildCubeLattice(query_);
    ASSERT_TRUE(lattice.ok()) << lattice.status();
    lattice_ = std::make_unique<CubeLattice>(std::move(*lattice));
    auto facts = BuildFactTable(*db_, query_, *lattice_);
    ASSERT_TRUE(facts.ok()) << facts.status();
    facts_ = std::make_unique<FactTable>(std::move(*facts));
  }

  /// Cuboid with the given per-axis states.
  CuboidId Cuboid(AxisStateId n, AxisStateId p, AxisStateId y) {
    return lattice_->Encode({n, p, y});
  }

  /// Finds an axis state whose pattern renders as `form`.
  AxisStateId StateByForm(size_t axis, const std::string& form) {
    const AxisLattice& al = lattice_->axis(axis);
    for (AxisStateId s = 0; s < al.num_states(); ++s) {
      if (!al.state(s).grouping_present()) {
        if (form == "ABSENT") return s;
        continue;
      }
      if (al.state(s).pattern.ToString() == form) return s;
    }
    ADD_FAILURE() << "no state " << form;
    return 0;
  }

  double CellCount(const CubeResult& cube, CuboidId cuboid,
                   const std::vector<std::string>& values,
                   const std::vector<size_t>& axes) {
    std::vector<ValueId> ids;
    for (size_t i = 0; i < values.size(); ++i) {
      // Axis dictionaries: find the value id by name.
      size_t axis = axes[i];
      bool found = false;
      for (ValueId v = 0; v < facts_->AxisCardinality(axis); ++v) {
        if (facts_->AxisValueName(axis, v) == values[i]) {
          ids.push_back(v);
          found = true;
          break;
        }
      }
      if (!found) return -1;
    }
    const AggregateState* cell =
        cube.FindCell(cuboid, PackGroupKey(ids));
    return cell == nullptr ? 0 : cell->Value(AggregateFunction::kCount);
  }

  std::unique_ptr<Database> db_;
  CubeQuery query_;
  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<FactTable> facts_;
};

TEST_F(Figure1CubeTest, FactTableShape) {
  ASSERT_EQ(facts_->size(), 4u);
  // Axis n: pub1 has 2 bindings, pub2 1, pub3 1 (only at relaxed
  // states), pub4 1.
  EXPECT_EQ(facts_->NumBindings(0, 0), 2u);
  EXPECT_EQ(facts_->NumBindings(0, 1), 1u);
  EXPECT_EQ(facts_->NumBindings(0, 2), 1u);
  // pub3's name is NOT admitted at the rigid state (authors wrapper).
  EXPECT_FALSE(FactTable::AdmittedAt(facts_->BindingMasks(0, 2)[0], 0));
  // Axis p: pub3 has no publisher anywhere.
  EXPECT_EQ(facts_->NumBindings(1, 2), 0u);
  // Axis y: pub2 has two years; pub4's year is nested (not admitted at
  // the rigid child state, and y has no structural relaxations).
  EXPECT_EQ(facts_->NumBindings(2, 1), 2u);
  EXPECT_EQ(facts_->NumBindings(2, 3), 0u);
}

TEST_F(Figure1CubeTest, MotivatingCountsFromSection1) {
  auto cube = ComputeCube(CubeAlgorithm::kReference, *facts_, *lattice_,
                          {AggregateFunction::kCount});
  ASSERT_TRUE(cube.ok()) << cube.status();

  AxisStateId n_abs = StateByForm(0, "ABSENT");
  AxisStateId p_abs = StateByForm(1, "ABSENT");
  AxisStateId y_abs = StateByForm(2, "ABSENT");
  AxisStateId p_rigid = 0;
  AxisStateId y_rigid = 0;

  // Group-by (publisher, year): (p1, 2003) contains only publication 1
  // and its count is 1 — not 2, despite two (author, p1, 2003) groups.
  CuboidId py = Cuboid(n_abs, p_rigid, y_rigid);
  EXPECT_EQ(CellCount(*cube, py, {"p1", "2003"}, {1, 2}), 1.0);

  // Group-by year alone: 2003 has publications 1 and 3 — the roll-up
  // from (publisher, year) would miss publication 3.
  CuboidId y_only = Cuboid(n_abs, p_abs, y_rigid);
  EXPECT_EQ(CellCount(*cube, y_only, {"2003"}, {2}), 2.0);
  EXPECT_EQ(CellCount(*cube, y_only, {"2004"}, {2}), 1.0);
  EXPECT_EQ(CellCount(*cube, y_only, {"2005"}, {2}), 1.0);

  // Group-by publisher alone: p2 has publication 2 once (not twice,
  // despite its two editions/years).
  CuboidId p_only = Cuboid(n_abs, p_rigid, y_abs);
  EXPECT_EQ(CellCount(*cube, p_only, {"p2"}, {1}), 1.0);
  EXPECT_EQ(CellCount(*cube, p_only, {"p1"}, {1}), 2.0);  // pubs 1, 4

  // The all-group contains all four publications.
  CuboidId all = Cuboid(n_abs, p_abs, y_abs);
  EXPECT_EQ(CellCount(*cube, all, {}, {}), 4.0);
}

TEST_F(Figure1CubeTest, RelaxationWidensGroups) {
  auto cube = ComputeCube(CubeAlgorithm::kReference, *facts_, *lattice_,
                          {AggregateFunction::kCount});
  ASSERT_TRUE(cube.ok());
  AxisStateId p_abs = StateByForm(1, "ABSENT");
  AxisStateId y_abs = StateByForm(2, "ABSENT");

  // Rigid name state: publication 3's Smith is missing.
  CuboidId n_rigid = Cuboid(0, p_abs, y_abs);
  EXPECT_EQ(CellCount(*cube, n_rigid, {"Smith"}, {0}), 0.0);
  EXPECT_EQ(CellCount(*cube, n_rigid, {"John"}, {0}), 2.0);

  // Fully relaxed //name state catches Smith (the PC-AD motivation).
  AxisStateId n_all = StateByForm(0, "publication//name");
  CuboidId n_relaxed = Cuboid(n_all, p_abs, y_abs);
  EXPECT_EQ(CellCount(*cube, n_relaxed, {"Smith"}, {0}), 1.0);
  EXPECT_EQ(CellCount(*cube, n_relaxed, {"Jane"}, {0}), 2.0);
}

TEST_F(Figure1CubeTest, AllCorrectAlgorithmsAgree) {
  auto reference = ComputeCube(CubeAlgorithm::kReference, *facts_, *lattice_,
                               {AggregateFunction::kCount});
  ASSERT_TRUE(reference.ok());
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kCounter, CubeAlgorithm::kBUC, CubeAlgorithm::kTD,
        CubeAlgorithm::kBUCCust, CubeAlgorithm::kTDCust}) {
    auto cube =
        ComputeCube(algo, *facts_, *lattice_, {AggregateFunction::kCount});
    ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo);
    std::string diff;
    EXPECT_TRUE(reference->Equals(*cube, &diff))
        << CubeAlgorithmToString(algo) << ": " << diff;
  }
}

TEST_F(Figure1CubeTest, OptVariantsAreWrongHere) {
  // Figure 1 data violates both properties (repeated authors/years,
  // missing publishers), so the OPT variants must differ from the
  // reference somewhere — reproducing the paper's Fig. 9 caveat.
  auto reference = ComputeCube(CubeAlgorithm::kReference, *facts_, *lattice_,
                               {AggregateFunction::kCount});
  ASSERT_TRUE(reference.ok());
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kBUCOpt, CubeAlgorithm::kTDOpt,
        CubeAlgorithm::kTDOptAll}) {
    auto cube =
        ComputeCube(algo, *facts_, *lattice_, {AggregateFunction::kCount});
    ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo);
    EXPECT_FALSE(reference->Equals(*cube))
        << CubeAlgorithmToString(algo)
        << " should be wrong on non-summarizable data";
  }
}

TEST_F(Figure1CubeTest, SumMinMaxAvgAgreeAcrossAlgorithms) {
  // Attach a measure: reuse the table but with synthetic measures.
  FactTable measured(3);
  for (size_t f = 0; f < facts_->size(); ++f) {
    measured.BeginFact(facts_->fact_id(f),
                       static_cast<int64_t>(f * 10 + 1));
    for (size_t a = 0; a < 3; ++a) {
      auto masks = facts_->BindingMasks(a, f);
      auto values = facts_->BindingValues(a, f);
      for (size_t i = 0; i < masks.size(); ++i) {
        measured.AddBinding(
            a, masks[i],
            measured.InternAxisValue(a,
                                     facts_->AxisValueName(a, values[i])));
      }
    }
  }
  measured.Finish();
  for (AggregateFunction fn :
       {AggregateFunction::kSum, AggregateFunction::kMin,
        AggregateFunction::kMax, AggregateFunction::kAvg}) {
    auto reference =
        ComputeCube(CubeAlgorithm::kReference, measured, *lattice_, {fn});
    ASSERT_TRUE(reference.ok());
    for (CubeAlgorithm algo : {CubeAlgorithm::kCounter, CubeAlgorithm::kBUC,
                               CubeAlgorithm::kTD}) {
      auto cube = ComputeCube(algo, measured, *lattice_, {fn});
      ASSERT_TRUE(cube.ok());
      std::string diff;
      EXPECT_TRUE(reference->Equals(*cube, &diff))
          << AggregateFunctionToString(fn) << "/"
          << CubeAlgorithmToString(algo) << ": " << diff;
    }
  }
}

TEST_F(Figure1CubeTest, XmlOutput) {
  auto cube = ComputeCube(CubeAlgorithm::kReference, *facts_, *lattice_,
                          {AggregateFunction::kCount});
  ASSERT_TRUE(cube.ok());
  XmlDocument doc = cube->ToXml(*lattice_, *facts_);
  ASSERT_NE(doc.root(), nullptr);
  EXPECT_EQ(doc.root()->tag(), "cube");
  EXPECT_EQ(*doc.root()->FindAttribute("function"), "COUNT");
  EXPECT_EQ(doc.root()->children().size(), lattice_->num_cuboids());
  // The rendered document must itself be valid XML.
  std::string xml = WriteXml(doc);
  auto reparsed = ParseXml(xml);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  // Find a cell mentioning John in some cuboid.
  bool found_john = false;
  for (const auto& cuboid : reparsed->root()->children()) {
    for (const auto& cell : cuboid->children()) {
      for (const auto& axis : cell->children()) {
        if (axis->CollectText() == "John") found_john = true;
      }
    }
  }
  EXPECT_TRUE(found_john);
}

TEST_F(Figure1CubeTest, ExplainCustomTopDownPlan) {
  // With no schema knowledge everything comes from base with ids.
  LatticeProperties nothing = LatticeProperties::AssumeNothing(*lattice_);
  std::string all_base = ExplainCubePlan(
      BuildCubePlan(CubeAlgorithm::kTDCust, *lattice_, nothing), *lattice_);
  EXPECT_EQ(std::string::npos, all_base.find("roll-up"));
  EXPECT_NE(std::string::npos, all_base.find("fact ids retained"));

  // With everything proven, only the finest cuboid touches base.
  LatticeProperties all = LatticeProperties::AssumeAll(*lattice_);
  CubePlan proven = BuildCubePlan(CubeAlgorithm::kTDCust, *lattice_, all);
  std::string plan = ExplainCubePlan(proven, *lattice_);
  size_t base_lines = 0;
  for (size_t pos = 0; (pos = plan.find("base scan", pos)) != std::string::npos;
       ++pos) {
    ++base_lines;
  }
  EXPECT_EQ(base_lines, 1u);
  EXPECT_NE(std::string::npos, plan.find("roll-up"));
  EXPECT_NE(std::string::npos, plan.find("copy"));

  // The plan and the execution agree: TDCUST with AssumeAll behaves
  // like TDOPTALL on summarizable data.
  EXPECT_EQ(proven.steps.size(), lattice_->num_cuboids());
  EXPECT_EQ(proven.steps[0].kind, CuboidPlanStep::Kind::kBaseNoIds);
}

// Golden rendering of the TDCUST plan over a hand-built property map:
// a two-axis LND-only lattice where the author axis is proven
// disjoint+covered at every state and the year axis is proven nothing.
// TDCUST must roll the author axis up / copy across it, and fall back
// to id-carrying base sorts wherever the unproven year axis changes.
TEST(ExplainGoldenTest, CustomPlanOverFixedPropertyMap) {
  CubeQuery query;
  query.fact_path = "//publication";
  query.axes.push_back(
      {"a", "/author", RelaxationSet::Of({RelaxationType::kLND}), {}});
  query.axes.push_back(
      {"y", "/year", RelaxationSet::Of({RelaxationType::kLND}), {}});
  auto lattice = BuildCubeLattice(query);
  ASSERT_TRUE(lattice.ok()) << lattice.status();

  LatticeProperties props = LatticeProperties::AssumeNothing(*lattice);
  for (AxisStateId s = 0; s < lattice->axis(0).num_states(); ++s) {
    props.Mutable(0, s)->disjoint = true;
    props.Mutable(0, s)->covered = true;
  }

  const std::string golden =
      "TDCUST: 4 cuboid(s), 0 pipe(s), 0 unsafe step(s)\n"
      "cuboid    0 [a:publication/author y:publication/year]  <- "
      "base scan + sort (fact ids retained: disjointness unproven)\n"
      "cuboid    1 [a:ABSENT y:publication/year]  <- "
      "roll-up from cuboid 0 (dropped axis disjoint+covered)\n"
      "cuboid    2 [a:publication/author y:ABSENT]  <- "
      "base scan + sort (no fact ids: disjoint)\n"
      "cuboid    3 [a:ABSENT y:ABSENT]  <- "
      "roll-up from cuboid 2 (dropped axis disjoint+covered)\n";
  CubePlan plan = BuildCubePlan(CubeAlgorithm::kTDCust, *lattice, props);
  EXPECT_EQ(ExplainCubePlan(plan, *lattice), golden);

  // The steps behind the rendering: dropping or relaxing the proven
  // author axis never rescans base; changing the year axis always does.
  const std::vector<CuboidPlanStep>& steps = plan.steps;
  ASSERT_EQ(steps.size(), lattice->num_cuboids());
  size_t base_steps = 0;
  for (const CuboidPlanStep& step : steps) {
    if (step.kind == CuboidPlanStep::Kind::kBaseWithIds ||
        step.kind == CuboidPlanStep::Kind::kBaseNoIds) {
      ++base_steps;
    }
    EXPECT_TRUE(step.safe);  // TDCUST only picks proven strategies
  }
  // One base sort per year state (present and absent); everything else
  // derives along the proven author axis.
  EXPECT_EQ(base_steps, lattice->axis(1).num_states());
}

TEST_F(Figure1CubeTest, CsvOutput) {
  auto cube = ComputeCube(CubeAlgorithm::kReference, *facts_, *lattice_,
                          {AggregateFunction::kCount});
  ASSERT_TRUE(cube.ok());
  TempFileManager temp;
  std::string path = temp.NextPath("cube-csv");
  ASSERT_TRUE(cube->WriteCsv(path, *lattice_, *facts_).ok());
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line), "cuboid,n,p,y,COUNT\n");
  fclose(f);
}

// --- Algorithm agreement sweep over generated workloads ---

// SweepCase has no printer, so gtest (and ctest's discovered test names)
// spell each case as the raw bytes of its value. The five bytes between
// the flags and the seed are therefore members rather than padding:
// padding holds whatever the stack held, which renamed the cases from one
// build to the next. Their values keep the names the cases were first
// registered under.
struct SweepCase {
  bool coverage;
  bool disjointness;
  bool dense;
  uint8_t name_bytes[5];
  uint64_t seed;
};
static_assert(offsetof(SweepCase, seed) == 8 && sizeof(SweepCase) == 16,
              "every byte of SweepCase must be a member");

class AlgorithmSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AlgorithmSweepTest, CorrectAlgorithmsMatchReference) {
  const SweepCase& c = GetParam();
  ExperimentSetting setting;
  setting.coverage_holds = c.coverage;
  setting.disjointness_holds = c.disjointness;
  setting.dense = c.dense;
  setting.num_axes = 3;
  setting.num_trees = 300;
  setting.seed = c.seed;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok()) << workload.status();

  CubeComputeOptions options;
  options.aggregate = AggregateFunction::kCount;
  options.properties = &workload->properties;

  auto reference = ComputeCube(CubeAlgorithm::kReference, workload->facts,
                               workload->lattice, options);
  ASSERT_TRUE(reference.ok());

  // Always-correct algorithms.
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kCounter, CubeAlgorithm::kBUC, CubeAlgorithm::kTD,
        CubeAlgorithm::kBUCCust, CubeAlgorithm::kTDCust}) {
    auto cube =
        ComputeCube(algo, workload->facts, workload->lattice, options);
    ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo);
    std::string diff;
    EXPECT_TRUE(reference->Equals(*cube, &diff))
        << CubeAlgorithmToString(algo) << ": " << diff;
  }

  // Disjointness-assuming algorithms are correct when it holds.
  if (c.disjointness) {
    for (CubeAlgorithm algo :
         {CubeAlgorithm::kBUCOpt, CubeAlgorithm::kTDOpt}) {
      auto cube =
          ComputeCube(algo, workload->facts, workload->lattice, options);
      ASSERT_TRUE(cube.ok());
      std::string diff;
      EXPECT_TRUE(reference->Equals(*cube, &diff))
          << CubeAlgorithmToString(algo) << ": " << diff;
    }
  }
  // TDOPTALL needs both.
  if (c.disjointness && c.coverage) {
    auto cube = ComputeCube(CubeAlgorithm::kTDOptAll, workload->facts,
                            workload->lattice, options);
    ASSERT_TRUE(cube.ok());
    std::string diff;
    EXPECT_TRUE(reference->Equals(*cube, &diff)) << "TDOPTALL: " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Settings, AlgorithmSweepTest,
    ::testing::Values(
        SweepCase{true, true, false, {0x00, 0x00, 0x00, 0x00, 0x00}, 1},
        SweepCase{true, true, true, {0x1B, 0x03, 0x3B, 0x2C, 0x00}, 2},
        SweepCase{false, true, false, {0x00, 0x00, 0x00, 0xD0, 0xEF}, 3},
        SweepCase{false, true, true, {0x00, 0x00, 0x00, 0x00, 0x00}, 4},
        SweepCase{true, false, false, {0x00, 0x00, 0x00, 0x00, 0x00}, 5},
        SweepCase{false, false, true, {0x1B, 0x03, 0x1E, 0x09, 0x00}, 6},
        SweepCase{false, false, false, {0x00, 0x00, 0x00, 0xD0, 0xCA}, 7}));

/// Structural-relaxation sweep: trees with nested (wrapped) axis
/// elements, axes permitted LND + PC-AD. The rigid state misses nested
/// instances (coverage fails there) while the AD state catches them —
/// the paper's semantic-challenge scenario — and every always-correct
/// algorithm must agree on the whole 3^d-cuboid lattice.
class StructuralRelaxationSweepTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StructuralRelaxationSweepTest, AlgorithmsAgreeUnderPcad) {
  TreebankConfig config;
  config.seed = GetParam();
  config.num_axes = 3;
  config.value_cardinality = 8;
  config.nesting_probability = 0.4;  // nested instances need PC-AD
  config.repeat_probability = 0.2;
  config.missing_probability = 0.1;
  TreebankGenerator generator(config);

  auto db = testutil::OpenDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(generator.LoadInto(db.get(), 200).ok());

  CubeQuery query = MakeTreebankQuery(
      config,
      RelaxationSet::Of({RelaxationType::kLND, RelaxationType::kPCAD}));
  auto lattice = BuildCubeLattice(query);
  ASSERT_TRUE(lattice.ok());
  // Each axis: rigid, //axis, absent.
  EXPECT_EQ(lattice->num_cuboids(), 27u);
  auto facts = BuildFactTable(*db, query, *lattice);
  ASSERT_TRUE(facts.ok());

  // Some fact must have a binding admitted only at the relaxed state.
  bool saw_relaxed_only = false;
  for (size_t f = 0; f < facts->size() && !saw_relaxed_only; ++f) {
    for (AxisStateMask mask : facts->BindingMasks(0, f)) {
      if (!FactTable::AdmittedAt(mask, 0) && mask != 0) {
        saw_relaxed_only = true;
      }
    }
  }
  EXPECT_TRUE(saw_relaxed_only);

  auto reference = ComputeCube(CubeAlgorithm::kReference, *facts, *lattice,
                               {AggregateFunction::kCount});
  ASSERT_TRUE(reference.ok());
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kCounter, CubeAlgorithm::kBUC, CubeAlgorithm::kTD,
        CubeAlgorithm::kBUCCust, CubeAlgorithm::kTDCust}) {
    auto cube =
        ComputeCube(algo, *facts, *lattice, {AggregateFunction::kCount});
    ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo);
    std::string diff;
    EXPECT_TRUE(reference->Equals(*cube, &diff))
        << CubeAlgorithmToString(algo) << ": " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralRelaxationSweepTest,
                         ::testing::Values(71, 72, 73, 74));

TEST(CounterMultipassTest, SmallBudgetForcesPassesButStaysCorrect) {
  ExperimentSetting setting;
  setting.num_axes = 4;
  setting.num_trees = 400;
  setting.dense = false;  // sparse: many cells
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok());

  auto reference = ComputeCube(CubeAlgorithm::kReference, workload->facts,
                               workload->lattice,
                               {AggregateFunction::kCount});
  ASSERT_TRUE(reference.ok());

  MemoryBudget budget(64 * 1024);
  ExecutionContext ctx({&budget, nullptr, nullptr, std::nullopt});
  CubeComputeOptions options;
  options.exec = &ctx;
  auto cube = ComputeCube(CubeAlgorithm::kCounter, workload->facts,
                          workload->lattice, options);
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_GT(ctx.costs().passes.value(), 1u)
      << "budget should force multiple passes";
  EXPECT_EQ(budget.used(), 0u);
  std::string diff;
  EXPECT_TRUE(reference->Equals(*cube, &diff)) << diff;
}

TEST(TopDownSpillTest, ExternalSortsUnderBudgetStayCorrect) {
  ExperimentSetting setting;
  setting.num_axes = 3;
  setting.num_trees = 500;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok());

  auto reference = ComputeCube(CubeAlgorithm::kReference, workload->facts,
                               workload->lattice,
                               {AggregateFunction::kCount});
  ASSERT_TRUE(reference.ok());

  TempFileManager temp;
  MemoryBudget budget(16 * 1024);
  ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
  CubeComputeOptions options;
  options.exec = &ctx;
  auto cube = ComputeCube(CubeAlgorithm::kTD, workload->facts,
                          workload->lattice, options);
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_GT(ctx.costs().spilled_runs.value(), 0u);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_GT(ctx.costs().sorts.value(), 0u);
  std::string diff;
  EXPECT_TRUE(reference->Equals(*cube, &diff)) << diff;
}

TEST(TopDownStatsTest, TdOptAllRollsUp) {
  ExperimentSetting setting;
  setting.num_axes = 4;
  setting.num_trees = 200;
  setting.coverage_holds = true;
  setting.disjointness_holds = true;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok());
  ExecutionContext ctx;
  CubeComputeOptions options;
  options.exec = &ctx;
  auto cube = ComputeCube(CubeAlgorithm::kTDOptAll, workload->facts,
                          workload->lattice, options);
  ASSERT_TRUE(cube.ok());
  // 2^4 = 16 cuboids: 1 from base, 15 by roll-up.
  EXPECT_EQ(ctx.costs().rollups.value(), 15u);
  EXPECT_EQ(ctx.costs().base_scans.value(), 1u);
}

TEST(TopDownStatsTest, TdSortsPerCuboidButTdOptShares) {
  ExperimentSetting setting;
  setting.num_axes = 4;
  setting.num_trees = 100;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok());
  ExecutionContext td_ctx, tdopt_ctx;
  CubeComputeOptions td, tdopt;
  td.exec = &td_ctx;
  tdopt.exec = &tdopt_ctx;
  ASSERT_TRUE(ComputeCube(CubeAlgorithm::kTD, workload->facts,
                          workload->lattice, td)
                  .ok());
  ASSERT_TRUE(ComputeCube(CubeAlgorithm::kTDOpt, workload->facts,
                          workload->lattice, tdopt)
                  .ok());
  const uint64_t td_sorts = td_ctx.costs().sorts.value();
  EXPECT_EQ(td_sorts, 16u);  // one per cuboid
  EXPECT_LT(tdopt_ctx.costs().sorts.value(), td_sorts);  // pipe sharing
}

TEST(CustomAlgorithmsTest, ExploitLocalPropertiesOnDblp) {
  auto workload = BuildDblpWorkload(500);
  ASSERT_TRUE(workload.ok()) << workload.status();
  // DBLP DTD: author breaks both; month breaks coverage; year/journal
  // hold both.
  EXPECT_FALSE(workload->properties.At(0, 0).disjoint);  // author
  EXPECT_FALSE(workload->properties.At(1, 0).covered);   // month
  EXPECT_TRUE(workload->properties.At(2, 0).disjoint);   // year
  EXPECT_TRUE(workload->properties.At(2, 0).covered);
  EXPECT_TRUE(workload->properties.At(3, 0).disjoint);   // journal

  CubeComputeOptions options;
  options.properties = &workload->properties;

  auto reference = ComputeCube(CubeAlgorithm::kReference, workload->facts,
                               workload->lattice, options);
  ASSERT_TRUE(reference.ok());

  ExecutionContext cust_ctx;
  CubeComputeOptions cust = options;
  cust.exec = &cust_ctx;
  auto tdcust = ComputeCube(CubeAlgorithm::kTDCust, workload->facts,
                            workload->lattice, cust);
  ASSERT_TRUE(tdcust.ok());
  std::string diff;
  EXPECT_TRUE(reference->Equals(*tdcust, &diff)) << diff;
  // It must have used roll-ups where year/journal allowed them.
  EXPECT_GT(cust_ctx.costs().rollups.value(), 0u);

  auto buccust = ComputeCube(CubeAlgorithm::kBUCCust, workload->facts,
                             workload->lattice, options);
  ASSERT_TRUE(buccust.ok());
  EXPECT_TRUE(reference->Equals(*buccust, &diff)) << diff;

  // And the global OPT variants are wrong on DBLP (repeated authors).
  auto bucopt = ComputeCube(CubeAlgorithm::kBUCOpt, workload->facts,
                            workload->lattice, options);
  ASSERT_TRUE(bucopt.ok());
  EXPECT_FALSE(reference->Equals(*bucopt));
}

TEST(EmptyInputTest, AllAlgorithmsHandleZeroFacts) {
  ExperimentSetting setting;
  setting.num_axes = 2;
  setting.num_trees = 0;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok()) << workload.status();
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kReference, CubeAlgorithm::kCounter,
        CubeAlgorithm::kBUC, CubeAlgorithm::kBUCOpt, CubeAlgorithm::kTD,
        CubeAlgorithm::kTDOpt, CubeAlgorithm::kTDOptAll,
        CubeAlgorithm::kBUCCust, CubeAlgorithm::kTDCust}) {
    auto cube = ComputeCube(algo, workload->facts, workload->lattice,
                            {AggregateFunction::kCount});
    ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo) << ": "
                           << cube.status();
    EXPECT_EQ(cube->TotalCells(), 0u) << CubeAlgorithmToString(algo);
  }
}

TEST(MismatchedInputTest, AxisCountValidated) {
  ExperimentSetting s2, s3;
  s2.num_axes = 2;
  s3.num_axes = 3;
  s2.num_trees = s3.num_trees = 10;
  auto w2 = BuildTreebankWorkload(s2);
  auto w3 = BuildTreebankWorkload(s3);
  ASSERT_TRUE(w2.ok() && w3.ok());
  auto cube = ComputeCube(CubeAlgorithm::kReference, w2->facts, w3->lattice,
                          {AggregateFunction::kCount});
  EXPECT_EQ(cube.status().code(), StatusCode::kInvalidArgument);
}

// --- Iceberg cubes (HAVING COUNT >= N) ---

TEST(IcebergTest, AllAlgorithmsAgreeOnFilteredCube) {
  ExperimentSetting setting;
  setting.num_axes = 3;
  setting.num_trees = 400;
  setting.dense = true;
  setting.disjointness_holds = false;  // stress the pruning under overlap
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok());

  CubeComputeOptions options;
  options.min_count = 5;
  auto reference = ComputeCube(CubeAlgorithm::kReference, workload->facts,
                               workload->lattice, options);
  ASSERT_TRUE(reference.ok());
  // Spot-check the threshold is active.
  for (CuboidId c = 0; c < workload->lattice.num_cuboids(); ++c) {
    for (const auto& [key, state] : reference->cuboid(c)) {
      EXPECT_GE(state.count, 5);
    }
  }
  EXPECT_GT(reference->TotalCells(), 0u);

  for (CubeAlgorithm algo :
       {CubeAlgorithm::kCounter, CubeAlgorithm::kBUC, CubeAlgorithm::kTD,
        CubeAlgorithm::kTDCust, CubeAlgorithm::kBUCCust}) {
    auto cube =
        ComputeCube(algo, workload->facts, workload->lattice, options);
    ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo);
    std::string diff;
    EXPECT_TRUE(reference->Equals(*cube, &diff))
        << CubeAlgorithmToString(algo) << ": " << diff;
  }
}

// Satellite conformance: every registered executor, iceberg thresholds
// 0/2/5, on the overlapping DBLP-style workload (multi-author articles
// make the author axis genuinely non-disjoint). Variants whose plan is
// fully proven safe must agree cell-exactly with the reference at every
// threshold; unsafe OPT plans are still required to complete cleanly.
TEST(IcebergTest, RegisteredAlgorithmsAgreeAcrossThresholds) {
  auto workload = BuildDblpWorkload(400);
  ASSERT_TRUE(workload.ok()) << workload.status();

  for (int64_t min_count : {0, 2, 5}) {
    CubeComputeOptions options;
    options.aggregate = AggregateFunction::kCount;
    options.properties = &workload->properties;
    options.min_count = min_count;

    auto reference = ComputeCube(CubeAlgorithm::kReference, workload->facts,
                                 workload->lattice, options);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_GT(reference->TotalCells(), 0u);
    if (min_count > 1) {
      for (CuboidId c = 0; c < workload->lattice.num_cuboids(); ++c) {
        for (const auto& [key, state] : reference->cuboid(c)) {
          EXPECT_GE(state.count, min_count);
        }
      }
    }

    for (CubeAlgorithm algo : kAllCubeAlgorithms) {
      CubePlan plan = BuildCubePlan(algo, workload->lattice,
                                    workload->properties);
      auto cube = ComputeCube(algo, workload->facts, workload->lattice,
                              options);
      ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo)
                             << " min_count=" << min_count << ": "
                             << cube.status();
      if (plan.unsafe_steps > 0) continue;
      std::string diff;
      EXPECT_TRUE(reference->Equals(*cube, &diff))
          << CubeAlgorithmToString(algo) << " min_count=" << min_count
          << ": " << diff;
    }
  }
}

TEST(IcebergTest, BucPrunesRecursion) {
  ExperimentSetting setting;
  setting.num_axes = 4;
  setting.num_trees = 500;
  setting.dense = false;  // sparse: most groups tiny -> heavy pruning
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok());

  ExecutionContext full_ctx, iceberg_ctx;
  CubeComputeOptions full, iceberg;
  full.exec = &full_ctx;
  iceberg.exec = &iceberg_ctx;
  iceberg.min_count = 20;
  ASSERT_TRUE(ComputeCube(CubeAlgorithm::kBUC, workload->facts,
                          workload->lattice, full)
                  .ok());
  ASSERT_TRUE(ComputeCube(CubeAlgorithm::kBUC, workload->facts,
                          workload->lattice, iceberg)
                  .ok());
  const ExecutionCosts& pruned = iceberg_ctx.costs();
  EXPECT_LT(pruned.partition_rows.value(),
            full_ctx.costs().partition_rows.value() / 2)
      << "pruning should cut the partitioning work drastically";
  EXPECT_LT(pruned.partitions.value(), full_ctx.costs().partitions.value());
}

TEST(IcebergTest, ThresholdOneIsNoOp) {
  ExperimentSetting setting;
  setting.num_axes = 2;
  setting.num_trees = 100;
  auto workload = BuildTreebankWorkload(setting);
  ASSERT_TRUE(workload.ok());
  CubeComputeOptions plain, one;
  one.min_count = 1;
  auto a = ComputeCube(CubeAlgorithm::kBUC, workload->facts,
                       workload->lattice, plain);
  auto b = ComputeCube(CubeAlgorithm::kBUC, workload->facts,
                       workload->lattice, one);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->Equals(*b));
}

// --- Randomized fact tables with structural (multi-state) masks ---

/// Builds a random fact table for the Query-1-shaped lattice with
/// monotone admission masks (admitted at s => admitted at every more
/// relaxed state), exercising the DAG-shaped axis lattices that the
/// LND-only generator workloads never produce.
FactTable RandomMaskFactTable(const CubeLattice& lattice, size_t num_facts,
                              bool disjoint, uint64_t seed) {
  Random rng(seed);
  FactTable table(lattice.num_axes());
  // Per axis: the set of "most relaxed present" reachable masks.
  for (size_t f = 0; f < num_facts; ++f) {
    table.BeginFact(f, static_cast<int64_t>(rng.Uniform(50)));
    for (size_t a = 0; a < lattice.num_axes(); ++a) {
      const AxisLattice& axis = lattice.axis(a);
      size_t bindings = disjoint ? rng.Uniform(2)          // 0 or 1
                                 : rng.Uniform(4);         // 0..3
      for (size_t b = 0; b < bindings; ++b) {
        // Pick a random "tightest" state, then close the mask upward
        // through the successor relation (monotone admission).
        AxisStateId start = static_cast<AxisStateId>(
            rng.Uniform(axis.num_states()));
        if (!axis.state(start).grouping_present()) start = 0;
        AxisStateMask mask = 0;
        std::vector<AxisStateId> frontier{start};
        while (!frontier.empty()) {
          AxisStateId s = frontier.back();
          frontier.pop_back();
          if ((mask >> s) & 1) continue;
          if (axis.state(s).grouping_present()) {
            mask |= AxisStateMask{1} << s;
          }
          for (AxisStateId t : axis.successors(s)) frontier.push_back(t);
        }
        if (mask == 0) continue;
        ValueId v = table.InternAxisValue(
            a, "v" + std::to_string(rng.Uniform(6)));
        table.AddBinding(a, mask, v);
      }
    }
  }
  table.Finish();
  return table;
}

CubeLattice Query1ShapedLattice() {
  CubeQuery query;
  query.fact_path = "//publication";
  query.axes.push_back({"n", "/author/name", RelaxationSet::All(), {}});
  query.axes.push_back(
      {"p", "//publisher/@id",
       RelaxationSet::Of({RelaxationType::kLND, RelaxationType::kPCAD}),
       {}});
  query.axes.push_back(
      {"y", "/year", RelaxationSet::Of({RelaxationType::kLND}), {}});
  auto lattice = BuildCubeLattice(query);
  EXPECT_TRUE(lattice.ok());
  return std::move(*lattice);
}

class RandomMaskSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomMaskSweepTest, CorrectFamiliesAgreeOnDagLattice) {
  CubeLattice lattice = Query1ShapedLattice();
  FactTable facts =
      RandomMaskFactTable(lattice, 150, /*disjoint=*/false, GetParam());

  auto reference = ComputeCube(CubeAlgorithm::kReference, facts, lattice,
                               {AggregateFunction::kCount});
  ASSERT_TRUE(reference.ok());
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kCounter, CubeAlgorithm::kBUC, CubeAlgorithm::kTD}) {
    auto cube = ComputeCube(algo, facts, lattice, {AggregateFunction::kCount});
    ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo);
    std::string diff;
    EXPECT_TRUE(reference->Equals(*cube, &diff))
        << CubeAlgorithmToString(algo) << ": " << diff;
  }
}

TEST_P(RandomMaskSweepTest, DisjointnessEnablesOptVariantsOnDagLattice) {
  CubeLattice lattice = Query1ShapedLattice();
  FactTable facts =
      RandomMaskFactTable(lattice, 150, /*disjoint=*/true, GetParam() + 77);

  auto reference = ComputeCube(CubeAlgorithm::kReference, facts, lattice,
                               {AggregateFunction::kCount});
  ASSERT_TRUE(reference.ok());
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kBUCOpt, CubeAlgorithm::kTDOpt}) {
    auto cube = ComputeCube(algo, facts, lattice, {AggregateFunction::kCount});
    ASSERT_TRUE(cube.ok()) << CubeAlgorithmToString(algo);
    std::string diff;
    EXPECT_TRUE(reference->Equals(*cube, &diff))
        << CubeAlgorithmToString(algo) << ": " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMaskSweepTest,
                         ::testing::Values(301, 302, 303, 304, 305));

TEST(AlgorithmNamesTest, RoundTrip) {
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kReference, CubeAlgorithm::kCounter,
        CubeAlgorithm::kBUC, CubeAlgorithm::kBUCOpt, CubeAlgorithm::kBUCCust,
        CubeAlgorithm::kTD, CubeAlgorithm::kTDOpt, CubeAlgorithm::kTDOptAll,
        CubeAlgorithm::kTDCust}) {
    EXPECT_EQ(*ParseCubeAlgorithm(CubeAlgorithmToString(algo)), algo);
  }
  EXPECT_FALSE(ParseCubeAlgorithm("MAGIC").ok());
}

}  // namespace
}  // namespace x3
