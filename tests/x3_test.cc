#include <gtest/gtest.h>

#include "cube/cube_spec.h"
#include "schema/dtd_parser.h"
#include "schema/summarizability.h"
#include "tests/test_helpers.h"
#include "x3/binder.h"
#include "x3/engine.h"
#include "x3/lexer.h"
#include "x3/parser.h"

namespace x3 {
namespace {

/// The paper's Query 1, verbatim (modulo whitespace).
constexpr const char* kQuery1 = R"(
for $b in doc("book.xml")//publication,
    $n in $b/author/name,
    $p in $b//publisher/@id,
    $y in $b/year
X^3 $b/@id by $n (LND, SP, PC-AD),
             $p (LND, PC-AD),
             $y (LND)
return COUNT($b).
)";

TEST(LexerTest, TokenizesQuery1) {
  auto tokens = LexX3Query(kQuery1);
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  // Spot-check key tokens.
  ASSERT_GE(tokens->size(), 10u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kFor);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kVariable);
  EXPECT_EQ((*tokens)[1].text, "b");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kIn);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[3].text, "doc");
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
  // "X^3" lexes as one token.
  bool has_x3 = false;
  for (const Token& t : *tokens) {
    if (t.kind == TokenKind::kX3) has_x3 = true;
  }
  EXPECT_TRUE(has_x3);
}

TEST(LexerTest, X3Spellings) {
  for (const char* spelling : {"X^3", "x^3", "x3", "X3", "cube", "CUBE"}) {
    auto tokens = LexX3Query(spelling);
    ASSERT_TRUE(tokens.ok()) << spelling;
    EXPECT_EQ((*tokens)[0].kind, TokenKind::kX3) << spelling;
  }
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = LexX3Query("for (: a comment :) $x");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kFor);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kVariable);
}

TEST(LexerTest, Strings) {
  auto tokens = LexX3Query("doc(\"a b.xml\") doc('c.xml')");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].text, "a b.xml");
  EXPECT_EQ((*tokens)[6].text, "c.xml");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(LexX3Query("$").ok());
  EXPECT_FALSE(LexX3Query("\"unterminated").ok());
  EXPECT_FALSE(LexX3Query("for (: never closed").ok());
  EXPECT_FALSE(LexX3Query("#").ok());
}

TEST(ParserTest, ParsesQuery1) {
  auto ast = ParseX3Query(kQuery1);
  ASSERT_TRUE(ast.ok()) << ast.status();
  ASSERT_EQ(ast->bindings.size(), 4u);
  EXPECT_EQ(ast->bindings[0].variable, "b");
  EXPECT_EQ(ast->bindings[0].doc, "book.xml");
  EXPECT_EQ(ast->bindings[0].path.ToString(), "//publication");
  EXPECT_EQ(ast->bindings[1].variable, "n");
  EXPECT_EQ(ast->bindings[1].source_variable, "b");
  EXPECT_EQ(ast->bindings[1].path.ToString(), "/author/name");
  EXPECT_EQ(ast->bindings[2].path.ToString(), "//publisher/@id");

  EXPECT_EQ(ast->fact_variable, "b");
  EXPECT_EQ(ast->fact_path.ToString(), "/@id");

  ASSERT_EQ(ast->axes.size(), 3u);
  EXPECT_TRUE(ast->axes[0].relaxations.Contains(RelaxationType::kLND));
  EXPECT_TRUE(ast->axes[0].relaxations.Contains(RelaxationType::kSP));
  EXPECT_TRUE(ast->axes[0].relaxations.Contains(RelaxationType::kPCAD));
  EXPECT_FALSE(ast->axes[2].relaxations.Contains(RelaxationType::kSP));

  EXPECT_EQ(ast->ret.function, "COUNT");
  EXPECT_EQ(ast->ret.variable, "b");
}

TEST(ParserTest, AxisWithoutRelaxations) {
  auto ast = ParseX3Query(
      "for $b in doc(\"x\")//a, $y in $b/y x3 $b by $y return COUNT($b)");
  ASSERT_TRUE(ast.ok()) << ast.status();
  EXPECT_TRUE(ast->axes[0].relaxations.empty());
}

TEST(ParserTest, MeasureReturn) {
  auto ast = ParseX3Query(
      "for $b in doc(\"x\")//a, $y in $b/y x3 $b by $y (LND) "
      "return SUM($b/price)");
  ASSERT_TRUE(ast.ok()) << ast.status();
  EXPECT_EQ(ast->ret.function, "SUM");
  EXPECT_EQ(ast->ret.path.ToString(), "/price");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseX3Query("").ok());
  EXPECT_FALSE(ParseX3Query("for $b doc(\"x\")//a").ok());  // missing in
  EXPECT_FALSE(
      ParseX3Query("for $b in doc(\"x\")//a x3 $b by $y (WAT) "
                   "return COUNT($b)")
          .ok());
  EXPECT_FALSE(
      ParseX3Query("for $b in doc(\"x\")//a x3 $b return COUNT($b)").ok());
  EXPECT_FALSE(
      ParseX3Query("for $b in doc(\"x\")//a x3 $b by $y (LND) return "
                   "COUNT($b) trailing")
          .ok());
}

TEST(BinderTest, BindsQuery1) {
  auto ast = ParseX3Query(kQuery1);
  ASSERT_TRUE(ast.ok());
  auto query = BindX3Query(*ast);
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->fact_path, "//publication");
  ASSERT_EQ(query->axes.size(), 3u);
  EXPECT_EQ(query->axes[0].name, "n");
  EXPECT_EQ(query->axes[0].path, "/author/name");
  EXPECT_EQ(query->axes[1].path, "//publisher/@id");
  EXPECT_EQ(query->axes[2].path, "/year");
  EXPECT_EQ(query->aggregate, AggregateFunction::kCount);
  EXPECT_TRUE(query->measure_path.empty());
}

TEST(BinderTest, TransitiveVariableChain) {
  auto ast = ParseX3Query(
      "for $b in doc(\"x\")//pub, $a in $b/author, $n in $a/name "
      "x3 $b by $n (LND) return COUNT($b)");
  ASSERT_TRUE(ast.ok()) << ast.status();
  auto query = BindX3Query(*ast);
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->axes[0].path, "/author/name");
}

TEST(BinderTest, MeasurePath) {
  auto ast = ParseX3Query(
      "for $b in doc(\"x\")//a, $y in $b/y x3 $b by $y (LND) "
      "return AVG($b/price)");
  ASSERT_TRUE(ast.ok());
  auto query = BindX3Query(*ast);
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->aggregate, AggregateFunction::kAvg);
  EXPECT_EQ(query->measure_path, "/price");
}

TEST(BinderTest, Errors) {
  // Unbound axis variable.
  auto ast = ParseX3Query(
      "for $b in doc(\"x\")//a x3 $b by $nope (LND) return COUNT($b)");
  ASSERT_TRUE(ast.ok());
  EXPECT_FALSE(BindX3Query(*ast).ok());

  // Fact variable not document-rooted.
  ast = ParseX3Query(
      "for $b in doc(\"x\")//a, $c in $b/c, $y in $c/y "
      "x3 $c by $y (LND) return COUNT($c)");
  ASSERT_TRUE(ast.ok());
  EXPECT_FALSE(BindX3Query(*ast).ok());

  // Axis rooted at a different doc variable.
  ast = ParseX3Query(
      "for $a in doc(\"x\")//a, $b in doc(\"y\")//b, $y in $b/y "
      "x3 $a by $y (LND) return COUNT($a)");
  ASSERT_TRUE(ast.ok());
  EXPECT_FALSE(BindX3Query(*ast).ok());

  // Unknown aggregate.
  ast = ParseX3Query(
      "for $b in doc(\"x\")//a, $y in $b/y x3 $b by $y (LND) "
      "return MEDIAN($b)");
  ASSERT_TRUE(ast.ok());
  EXPECT_FALSE(BindX3Query(*ast).ok());
}

TEST(ParserTest, SubstringTransform) {
  auto ast = ParseX3Query(
      "for $b in doc(\"x\")//a, $t in $b/t "
      "x3 $b by substring($t, 1, 2) (LND) return COUNT($b)");
  ASSERT_TRUE(ast.ok()) << ast.status();
  EXPECT_EQ(ast->axes[0].transform, "substring");
  EXPECT_EQ(ast->axes[0].transform_length, 2);
  EXPECT_EQ(ast->axes[0].variable, "t");
  EXPECT_TRUE(ast->axes[0].relaxations.Contains(RelaxationType::kLND));
}

TEST(ParserTest, LowercaseTransform) {
  auto ast = ParseX3Query(
      "for $b in doc(\"x\")//a, $t in $b/t "
      "x3 $b by lowercase($t) return COUNT($b)");
  ASSERT_TRUE(ast.ok()) << ast.status();
  EXPECT_EQ(ast->axes[0].transform, "lowercase");
}

TEST(ParserTest, HavingClause) {
  auto ast = ParseX3Query(
      "for $b in doc(\"x\")//a, $t in $b/t "
      "x3 $b by $t (LND) return COUNT($b) having count >= 10");
  ASSERT_TRUE(ast.ok()) << ast.status();
  EXPECT_EQ(ast->min_count, 10);

  ast = ParseX3Query(
      "for $b in doc(\"x\")//a, $t in $b/t "
      "x3 $b by $t (LND) return COUNT($b) having COUNT($b) >= 3");
  ASSERT_TRUE(ast.ok()) << ast.status();
  EXPECT_EQ(ast->min_count, 3);
}

TEST(ParserTest, TransformErrors) {
  EXPECT_FALSE(ParseX3Query("for $b in doc(\"x\")//a, $t in $b/t "
                            "x3 $b by substring($t, 2, 1) (LND) "
                            "return COUNT($b)")
                   .ok());  // start must be 1
  EXPECT_FALSE(ParseX3Query("for $b in doc(\"x\")//a, $t in $b/t "
                            "x3 $b by substring($t, 1, 0) (LND) "
                            "return COUNT($b)")
                   .ok());  // zero length
  EXPECT_FALSE(ParseX3Query("for $b in doc(\"x\")//a, $t in $b/t "
                            "x3 $b by reverse($t) (LND) return COUNT($b)")
                   .ok());  // unknown transform
  EXPECT_FALSE(ParseX3Query("for $b in doc(\"x\")//a, $t in $b/t "
                            "x3 $b by $t (LND) return COUNT($b) "
                            "having sum >= 1")
                   .ok());  // only count
}

TEST(EngineTest, SubstringGroupsByPrefix) {
  auto db = testutil::OpenDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->LoadXmlString(R"(
      <corpus>
        <doc><word>apple</word></doc>
        <doc><word>apricot</word></doc>
        <doc><word>banana</word></doc>
      </corpus>)")
                  .ok());
  X3Engine engine(db.get());
  auto result = engine.Execute(
      "for $d in doc(\"c\")//doc, $w in $d/word "
      "x3 $d by substring($w, 1, 1) (LND) return COUNT($d)",
      CubeAlgorithm::kReference);
  ASSERT_TRUE(result.ok()) << result.status();
  // Cuboid 0 groups by the first character: 'a' -> 2, 'b' -> 1.
  const auto& cells = result->cube.cuboid(0);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(result->facts.AxisCardinality(0), 2u);
}

TEST(EngineTest, HavingFiltersSmallGroups) {
  auto db = testutil::OpenDb();
  ASSERT_NE(db, nullptr);
  std::string xml = "<corpus>";
  for (int i = 0; i < 5; ++i) xml += "<doc><cat>big</cat></doc>";
  xml += "<doc><cat>small</cat></doc></corpus>";
  ASSERT_TRUE(db->LoadXmlString(xml).ok());
  X3Engine engine(db.get());
  auto result = engine.Execute(
      "for $d in doc(\"c\")//doc, $c in $d/cat "
      "x3 $d by $c (LND) return COUNT($d) having count >= 2",
      CubeAlgorithm::kBUC);
  ASSERT_TRUE(result.ok()) << result.status();
  // Only the "big" group (5 facts) survives in the grouped cuboid;
  // the all-group (6 facts) survives in the other.
  EXPECT_EQ(result->cube.cuboid(0).size(), 1u);
  EXPECT_EQ(result->cube.cuboid(1).size(), 1u);
}

TEST(EngineTest, ExecutesQuery1OnFigure1) {
  auto db = testutil::OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  X3Engine engine(db.get());
  auto result = engine.Execute(kQuery1, CubeAlgorithm::kBUC);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->facts.size(), 4u);
  EXPECT_EQ(result->lattice.num_cuboids(), 48u);  // 8 * 3 * 2
  EXPECT_GT(result->cube.TotalCells(), 0u);
  EXPECT_GE(result->materialize_seconds, 0.0);

  // Every algorithm family yields the same (correct) cube for the
  // correctness-preserving variants.
  auto reference = engine.Execute(kQuery1, CubeAlgorithm::kReference);
  ASSERT_TRUE(reference.ok());
  for (CubeAlgorithm algo : {CubeAlgorithm::kCounter, CubeAlgorithm::kTD}) {
    auto other = engine.Execute(kQuery1, algo);
    ASSERT_TRUE(other.ok());
    std::string diff;
    EXPECT_TRUE(reference->cube.Equals(other->cube, &diff)) << diff;
  }
}

TEST(EngineTest, SumQueryUsesMeasure) {
  auto db = testutil::OpenDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->LoadXmlString(R"(
      <shop>
        <item><cat>a</cat><price>10</price></item>
        <item><cat>a</cat><price>5</price></item>
        <item><cat>b</cat><price>7</price></item>
      </shop>)")
                  .ok());
  X3Engine engine(db.get());
  auto result = engine.Execute(
      "for $i in doc(\"shop.xml\")//item, $c in $i/cat "
      "x3 $i by $c (LND) return SUM($i/price)",
      CubeAlgorithm::kReference);
  ASSERT_TRUE(result.ok()) << result.status();
  // Cuboid 0 groups by cat: a -> 15, b -> 7.
  const auto& cells = result->cube.cuboid(0);
  ASSERT_EQ(cells.size(), 2u);
  double total = 0;
  for (const auto& [key, state] : cells) {
    total += state.Value(AggregateFunction::kSum);
  }
  EXPECT_EQ(total, 22.0);
}

TEST(EngineTest, CustAlgorithmsWithInferredPropertiesEndToEnd) {
  auto db = testutil::OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  X3Engine engine(db.get());

  // Schema of the Figure 1 warehouse, with the heterogeneity the data
  // exhibits declared honestly.
  auto schema = ParseDtd(R"(
      <!ELEMENT database (publication*)>
      <!ELEMENT publication (author*, authors?, publisher?, year*,
                             pubData?)>
      <!ATTLIST publication id CDATA #REQUIRED>
      <!ELEMENT authors (author+)>
      <!ELEMENT author (name)>
      <!ATTLIST author id CDATA #REQUIRED>
      <!ELEMENT name (#PCDATA)>
      <!ELEMENT publisher EMPTY>
      <!ATTLIST publisher id CDATA #REQUIRED>
      <!ELEMENT year (#PCDATA)>
      <!ELEMENT pubData (publisher, year)>)");
  ASSERT_TRUE(schema.ok()) << schema.status();

  auto query = engine.Compile(kQuery1);
  ASSERT_TRUE(query.ok());
  auto lattice = BuildCubeLattice(*query);
  ASSERT_TRUE(lattice.ok());
  auto properties =
      InferLatticeProperties(*schema, *lattice, "publication");
  ASSERT_TRUE(properties.ok()) << properties.status();

  CubeComputeOptions options;
  options.properties = &*properties;
  auto reference =
      engine.Execute(kQuery1, CubeAlgorithm::kReference, options);
  ASSERT_TRUE(reference.ok());
  for (CubeAlgorithm algo :
       {CubeAlgorithm::kBUCCust, CubeAlgorithm::kTDCust}) {
    auto result = engine.Execute(kQuery1, algo, options);
    ASSERT_TRUE(result.ok()) << CubeAlgorithmToString(algo);
    std::string diff;
    EXPECT_TRUE(reference->cube.Equals(result->cube, &diff))
        << CubeAlgorithmToString(algo) << ": " << diff;
  }
}

TEST(EngineTest, BudgetChargedForMaterializedFacts) {
  auto db = testutil::OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  X3Engine engine(db.get());

  MemoryBudget budget(64 * 1024 * 1024);
  ExecutionContext ctx({&budget, nullptr, nullptr, std::nullopt});
  CubeComputeOptions options;
  options.exec = &ctx;
  auto result = engine.Execute(kQuery1, CubeAlgorithm::kBUC, options);
  ASSERT_TRUE(result.ok()) << result.status();

  // The materialized fact table is charged against the budget for the
  // duration of the computation, so peak memory can never understate
  // the input's resident size.
  EXPECT_GE(budget.peak(), result->facts.ApproxBytes());
  EXPECT_GT(result->facts.ApproxBytes(), 0u);
  // ...and the charge is released once execution finishes.
  EXPECT_EQ(budget.used(), 0u);
}

TEST(EngineTest, StageTimingsSurfaced) {
  auto db = testutil::OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  X3Engine engine(db.get());
  auto result = engine.Execute(kQuery1, CubeAlgorithm::kCounter);
  ASSERT_TRUE(result.ok()) << result.status();

  bool saw_materialize = false, saw_plan = false, saw_compute = false;
  for (const StageTiming& stage : result->stage_timings) {
    if (stage.label == "materialize") saw_materialize = true;
    if (stage.label == "plan") saw_plan = true;
    if (stage.label == "compute") saw_compute = true;
    EXPECT_GE(stage.seconds, 0.0);
  }
  EXPECT_TRUE(saw_materialize);
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_compute);
  EXPECT_GE(result->plan_seconds, 0.0);
  EXPECT_LE(result->plan_seconds, result->cube_seconds);
}

TEST(EngineTest, CallerContextInterruptsWholePipeline) {
  auto db = testutil::OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  X3Engine engine(db.get());

  // Pre-cancelled token: the pipeline must stop before materializing.
  CancellationToken token;
  token.Cancel();
  ExecutionContext cancelled({nullptr, nullptr, &token, std::nullopt});
  CubeComputeOptions options;
  options.exec = &cancelled;
  auto result = engine.Execute(kQuery1, CubeAlgorithm::kBUC, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // Expired deadline: same unwind, different status.
  ExecutionContext late({nullptr, nullptr, nullptr,
                         ExecutionContext::Clock::now() -
                             std::chrono::milliseconds(1)});
  options.exec = &late;
  result = engine.Execute(kQuery1, CubeAlgorithm::kBUC, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EngineTest, CompileOnlyValidates) {
  auto db = testutil::OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  X3Engine engine(db.get());
  auto query = engine.Compile(kQuery1);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->axes.size(), 3u);
  EXPECT_FALSE(engine.Compile("for nonsense").ok());
}

/// X3Engine::Compile error paths: every malformed query must surface
/// the right status code (kParseError from the parser, kInvalidArgument
/// from the binder) with a message naming the offending construct —
/// these are the messages the serving layer hands back to clients
/// verbatim, so they must stay precise.
class EngineCompileErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testutil::OpenFigure1Db();
    ASSERT_NE(db_, nullptr);
    engine_ = std::make_unique<X3Engine>(db_.get());
  }

  void ExpectCompileError(const std::string& query_text,
                          StatusCode expected_code,
                          const std::string& message_fragment) {
    auto query = engine_->Compile(query_text);
    ASSERT_FALSE(query.ok()) << query_text;
    EXPECT_EQ(query.status().code(), expected_code)
        << query.status().ToString();
    EXPECT_NE(query.status().message().find(message_fragment),
              std::string::npos)
        << "expected '" << message_fragment << "' in: "
        << query.status().ToString();
  }

  void ExpectParseError(const std::string& query_text,
                        const std::string& message_fragment) {
    ExpectCompileError(query_text, StatusCode::kParseError, message_fragment);
  }

  void ExpectBindError(const std::string& query_text,
                       const std::string& message_fragment) {
    ExpectCompileError(query_text, StatusCode::kInvalidArgument,
                       message_fragment);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<X3Engine> engine_;
};

TEST_F(EngineCompileErrorTest, MalformedText) {
  ExpectParseError("COUNT COUNT COUNT", "expected");
  ExpectParseError("for $b in doc(\"a\")//p X^3", "expected");
  // Truncated before the return clause.
  ExpectParseError(
      "for $b in doc(\"a\")//publication X^3 $b by $b/year (LND)", "expected");
}

TEST_F(EngineCompileErrorTest, UnknownRelaxation) {
  ExpectParseError(R"(
for $b in doc("book.xml")//publication,
    $y in $b/year
X^3 $b by $y (SIBLING)
return COUNT($b).
)",
                   "unknown relaxation");
}

TEST_F(EngineCompileErrorTest, UnboundAxisVariable) {
  ExpectBindError(R"(
for $b in doc("book.xml")//publication
X^3 $b by $y (LND)
return COUNT($b).
)",
                     "unbound variable $y");
}

TEST_F(EngineCompileErrorTest, VariableBoundTwice) {
  ExpectBindError(R"(
for $b in doc("book.xml")//publication,
    $y in $b/year,
    $y in $b/author
X^3 $b by $y (LND)
return COUNT($b).
)",
                     "bound twice");
}

TEST_F(EngineCompileErrorTest, FactVariableNotBound) {
  ExpectBindError(R"(
for $y in doc("book.xml")//year
X^3 $b by $y (LND)
return COUNT($b).
)",
                     "is not bound");
}

TEST_F(EngineCompileErrorTest, FactVariableNotDocRooted) {
  ExpectBindError(R"(
for $r in doc("book.xml")//bib,
    $b in $r/publication,
    $y in $b/year
X^3 $b by $y (LND)
return COUNT($b).
)",
                     "must be bound to a doc(...) path");
}

TEST_F(EngineCompileErrorTest, AxisNotRootedAtFactVariable) {
  ExpectBindError(R"(
for $b in doc("book.xml")//publication,
    $other in doc("other.xml")//journal,
    $y in $other/year
X^3 $b by $y (LND)
return COUNT($b).
)",
                     "must be rooted at the fact variable");
}

TEST_F(EngineCompileErrorTest, BindingCycle) {
  ExpectBindError(R"(
for $b in doc("book.xml")//publication,
    $p in $q/x,
    $q in $p/y
X^3 $b by $p (LND)
return COUNT($b).
)",
                     "too deep");
}

TEST_F(EngineCompileErrorTest, MeasureNotRelativeToFact) {
  ExpectBindError(R"(
for $b in doc("book.xml")//publication,
    $y in $b/year
X^3 $b by $y (LND)
return SUM($y/price).
)",
                     "measure path must be relative to the fact");
}

TEST_F(EngineCompileErrorTest, UnknownAggregateFunction) {
  ExpectBindError(R"(
for $b in doc("book.xml")//publication,
    $y in $b/year
X^3 $b by $y (LND)
return MEDIAN($b).
)",
                     "unknown aggregate function");
}

}  // namespace
}  // namespace x3
