#include <gtest/gtest.h>

#include <algorithm>

#include "pattern/join_matcher.h"
#include "pattern/pattern_parser.h"
#include "pattern/tree_pattern.h"
#include "pattern/twig_matcher.h"
#include "tests/test_helpers.h"

namespace x3 {
namespace {

using testutil::OpenFigure1Db;

TEST(TreePatternTest, BuildAndRender) {
  TreePattern p;
  PatternNodeId root = p.SetRoot("publication");
  PatternNodeId author = p.AddNode(root, "author", StructuralAxis::kChild);
  p.AddNode(author, "name", StructuralAxis::kChild);
  p.AddNode(root, "year", StructuralAxis::kDescendant);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.ToString(), "publication[./author/name][.//year]");
}

TEST(TreePatternTest, DeleteLeafRules) {
  TreePattern p;
  PatternNodeId root = p.SetRoot("a");
  PatternNodeId b = p.AddNode(root, "b", StructuralAxis::kChild);
  PatternNodeId c = p.AddNode(b, "c", StructuralAxis::kChild);
  EXPECT_FALSE(p.DeleteLeaf(root).ok());
  EXPECT_FALSE(p.DeleteLeaf(b).ok());  // not a leaf
  EXPECT_TRUE(p.DeleteLeaf(c).ok());
  EXPECT_FALSE(p.IsLive(c));
  EXPECT_TRUE(p.IsLeaf(b));  // became a leaf
  EXPECT_TRUE(p.DeleteLeaf(b).ok());
  EXPECT_EQ(p.size(), 1u);
}

TEST(TreePatternTest, PromoteToGrandparent) {
  // a/b/c --SP(c)--> a[./b][.//c]
  TreePattern p;
  PatternNodeId root = p.SetRoot("a");
  PatternNodeId b = p.AddNode(root, "b", StructuralAxis::kChild);
  PatternNodeId c = p.AddNode(b, "c", StructuralAxis::kChild);
  EXPECT_FALSE(p.PromoteToGrandparent(b).ok());  // parent is root
  ASSERT_TRUE(p.PromoteToGrandparent(c).ok());
  EXPECT_EQ(p.node(c).parent, root);
  EXPECT_EQ(p.node(c).edge, StructuralAxis::kDescendant);
  EXPECT_EQ(p.ToString(), "a[./b][.//c]");
}

TEST(TreePatternTest, GeneralizeEdge) {
  TreePattern p;
  PatternNodeId root = p.SetRoot("a");
  PatternNodeId b = p.AddNode(root, "b", StructuralAxis::kChild);
  ASSERT_TRUE(p.GeneralizeEdge(b).ok());
  EXPECT_EQ(p.node(b).edge, StructuralAxis::kDescendant);
  EXPECT_EQ(p.ToString(), "a//b");
}

TEST(TreePatternTest, CanonicalFormIgnoresSiblingOrder) {
  TreePattern p1;
  PatternNodeId r1 = p1.SetRoot("a");
  p1.AddNode(r1, "b", StructuralAxis::kChild);
  p1.AddNode(r1, "c", StructuralAxis::kDescendant);

  TreePattern p2;
  PatternNodeId r2 = p2.SetRoot("a");
  p2.AddNode(r2, "c", StructuralAxis::kDescendant);
  p2.AddNode(r2, "b", StructuralAxis::kChild);

  EXPECT_EQ(p1.CanonicalForm(), p2.CanonicalForm());
}

TEST(TreePatternTest, CanonicalFormMarksGroupingNode) {
  TreePattern p;
  PatternNodeId r = p.SetRoot("a");
  PatternNodeId b = p.AddNode(r, "b", StructuralAxis::kChild);
  PatternNodeId c = p.AddNode(b, "c", StructuralAxis::kChild);
  EXPECT_NE(p.CanonicalForm(b), p.CanonicalForm(c));
  EXPECT_NE(p.CanonicalForm(b), p.CanonicalForm());
  // Two identical siblings are interchangeable: marking either one
  // canonicalizes identically (the states are semantically equal).
  TreePattern q;
  PatternNodeId qr = q.SetRoot("a");
  PatternNodeId s1 = q.AddNode(qr, "b", StructuralAxis::kChild);
  PatternNodeId s2 = q.AddNode(qr, "b", StructuralAxis::kChild);
  EXPECT_EQ(q.CanonicalForm(s1), q.CanonicalForm(s2));
}

TEST(PatternParserTest, SimplePath) {
  auto parsed = ParsePattern("//publication/author/name");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->spine.size(), 3u);
  const TreePattern& p = parsed->pattern;
  EXPECT_EQ(p.node(p.root()).tag, "publication");
  EXPECT_EQ(p.node(parsed->output_node()).tag, "name");
  EXPECT_EQ(p.node(parsed->spine[1]).edge, StructuralAxis::kChild);
}

TEST(PatternParserTest, DescendantAndAttribute) {
  auto parsed = ParsePattern("//publication//publisher/@id");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const TreePattern& p = parsed->pattern;
  EXPECT_EQ(p.node(parsed->spine[1]).edge, StructuralAxis::kDescendant);
  EXPECT_EQ(p.node(parsed->output_node()).tag, "@id");
}

TEST(PatternParserTest, Predicates) {
  auto parsed =
      ParsePattern("publication[./author/name][.//publisher/@id]/year");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->pattern.size(), 6u);
  EXPECT_EQ(parsed->output_node(),
            parsed->spine.back());
  EXPECT_EQ(parsed->pattern.node(parsed->output_node()).tag, "year");
}

TEST(PatternParserTest, OptionalStep) {
  auto parsed = ParsePattern("//book/title?");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->pattern.node(parsed->output_node()).optional);
}

TEST(PatternParserTest, Wildcard) {
  auto parsed = ParsePattern("//publication/*");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->pattern.node(parsed->output_node()).tag, "*");
}

TEST(PatternParserTest, Errors) {
  EXPECT_FALSE(ParsePattern("").ok());
  EXPECT_FALSE(ParsePattern("//").ok());
  EXPECT_FALSE(ParsePattern("a[author]").ok());     // predicate needs '.'
  EXPECT_FALSE(ParsePattern("a[./b").ok());         // unterminated
  EXPECT_FALSE(ParsePattern("a/b]").ok());          // trailing
  EXPECT_FALSE(ParsePattern("a?/b").ok());          // optional root
}

TEST(PatternParserTest, RelativePath) {
  TreePattern p;
  PatternNodeId root = p.SetRoot("publication");
  auto spine = ParseRelativePath("/author/name", &p, root);
  ASSERT_TRUE(spine.ok()) << spine.status();
  EXPECT_EQ(spine->size(), 2u);
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.node(spine->back()).tag, "name");
}

// --- Twig matching against the Figure 1 database ---

class TwigMatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenFigure1Db();
    ASSERT_NE(db_, nullptr);
    matcher_ = std::make_unique<TwigMatcher>(db_.get());
  }

  std::vector<WitnessTree> Match(const std::string& pattern_text) {
    auto parsed = ParsePattern(pattern_text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    auto matches = matcher_->FindMatches(parsed->pattern);
    EXPECT_TRUE(matches.ok()) << matches.status();
    last_parsed_ = std::move(*parsed);
    return *matches;
  }

  /// Values of the output node across witnesses, sorted.
  std::vector<std::string> OutputValues(
      const std::vector<WitnessTree>& witnesses) {
    std::vector<std::string> out;
    for (const WitnessTree& w : witnesses) {
      NodeId id = w.bindings[static_cast<size_t>(last_parsed_.output_node())];
      if (id != kInvalidNodeId) out.push_back(*db_->NodeValue(id));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TwigMatcher> matcher_;
  ParsedPattern last_parsed_;
};

TEST_F(TwigMatcherTest, PaperSection21Example) {
  // "a simple tree pattern seeking a year node as child of a
  // publication node will match the first three publications ... and
  // actually match the second publication twice."
  auto witnesses = Match("//publication/year");
  EXPECT_EQ(witnesses.size(), 4u);  // pubs 1, 2 (twice), 3
  EXPECT_EQ(OutputValues(witnesses),
            (std::vector<std::string>{"2003", "2003", "2004", "2005"}));
}

TEST_F(TwigMatcherTest, DescendantReachesNestedAuthor) {
  // publication/author misses pub 3; publication//author catches all.
  EXPECT_EQ(Match("//publication/author").size(), 4u);
  EXPECT_EQ(Match("//publication//author").size(), 5u);
}

TEST_F(TwigMatcherTest, BranchingPattern) {
  // author AND publisher as children: pubs 1 (2 authors x 1 publisher)
  // and 2 (1 x 1).
  auto witnesses = Match("//publication[./author]/publisher");
  EXPECT_EQ(witnesses.size(), 3u);
}

TEST_F(TwigMatcherTest, AttributeLeaf) {
  auto witnesses = Match("//publication/publisher/@id");
  EXPECT_EQ(OutputValues(witnesses),
            (std::vector<std::string>{"p1", "p2"}));
}

TEST_F(TwigMatcherTest, OptionalNodeOuterJoins) {
  // publisher? keeps publications without a publisher, binding null.
  auto witnesses = Match("//publication/publisher?");
  EXPECT_EQ(witnesses.size(), 4u);
  size_t nulls = 0;
  for (const WitnessTree& w : witnesses) {
    if (w.bindings[static_cast<size_t>(last_parsed_.output_node())] ==
        kInvalidNodeId) {
      ++nulls;
    }
  }
  // Pubs 3 and 4 have no publisher child.
  EXPECT_EQ(nulls, 2u);
}

TEST_F(TwigMatcherTest, WildcardChild) {
  auto witnesses = Match("//pubData/*");
  // pubData has publisher (with @id below it) and year children; the
  // wildcard also matches the @id attribute node of publisher? No:
  // child axis from pubData reaches publisher and year only.
  EXPECT_EQ(witnesses.size(), 2u);
}

TEST_F(TwigMatcherTest, NoMatches) {
  EXPECT_TRUE(Match("//nosuchtag").empty());
  EXPECT_TRUE(Match("//publication/nosuchtag").empty());
}

TEST_F(TwigMatcherTest, LimitRespected) {
  auto parsed = ParsePattern("//publication/year");
  ASSERT_TRUE(parsed.ok());
  auto matches = matcher_->FindMatches(parsed->pattern, /*limit=*/2);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 2u);
}

TEST_F(TwigMatcherTest, FindMatchesUnder) {
  auto parsed = ParsePattern("publication/author/name");
  ASSERT_TRUE(parsed.ok());
  const auto& pubs = db_->NodesWithTag("publication");
  auto m1 = matcher_->FindMatchesUnder(parsed->pattern, pubs[0]);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1->size(), 2u);  // John, Jane
  auto m3 = matcher_->FindMatchesUnder(parsed->pattern, pubs[2]);
  ASSERT_TRUE(m3.ok());
  EXPECT_TRUE(m3->empty());  // author nested under authors
  // Wrong tag root.
  auto none = matcher_->FindMatchesUnder(parsed->pattern,
                                         db_->NodesWithTag("year")[0]);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(TwigMatcherTest, EmbedsWithFixedBindings) {
  auto parsed = ParsePattern("publication//author/name");
  ASSERT_TRUE(parsed.ok());
  const auto& pubs = db_->NodesWithTag("publication");
  const auto& names = db_->NodesWithTag("name");
  // names[3] is Smith under pub 3 (nested).
  ASSERT_EQ(*db_->NodeValue(names[3]), "Smith");
  auto yes = matcher_->Embeds(
      parsed->pattern,
      {{parsed->pattern.root(), pubs[2]}, {parsed->output_node(), names[3]}});
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  // Smith is not under pub 1.
  auto no = matcher_->Embeds(
      parsed->pattern,
      {{parsed->pattern.root(), pubs[0]}, {parsed->output_node(), names[3]}});
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST_F(TwigMatcherTest, EmbedsRespectsChildEdge) {
  auto parsed = ParsePattern("publication/author/name");
  ASSERT_TRUE(parsed.ok());
  const auto& pubs = db_->NodesWithTag("publication");
  const auto& names = db_->NodesWithTag("name");
  // Smith's author is not a *child* of publication 3.
  auto no = matcher_->Embeds(
      parsed->pattern,
      {{parsed->pattern.root(), pubs[2]}, {parsed->output_node(), names[3]}});
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST_F(TwigMatcherTest, EmbedsExistentialWithoutFixedOutput) {
  auto parsed = ParsePattern("publication[./publisher]/year");
  ASSERT_TRUE(parsed.ok());
  const auto& pubs = db_->NodesWithTag("publication");
  auto pub1 = matcher_->Embeds(parsed->pattern,
                               {{parsed->pattern.root(), pubs[0]}});
  ASSERT_TRUE(pub1.ok());
  EXPECT_TRUE(*pub1);
  auto pub3 = matcher_->Embeds(parsed->pattern,
                               {{parsed->pattern.root(), pubs[2]}});
  ASSERT_TRUE(pub3.ok());
  EXPECT_FALSE(*pub3);  // no publisher
}

// --- Value predicates ---

TEST(ValuePredicateTest, ParserAcceptsAndRenders) {
  auto parsed = ParsePattern("//publication/year[.=\"2003\"]");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const PatternNode& year = parsed->pattern.node(parsed->output_node());
  EXPECT_TRUE(year.has_value_filter);
  EXPECT_EQ(year.value_filter, "2003");
  EXPECT_EQ(parsed->pattern.ToString(),
            "publication/year[.=\"2003\"]");
  // Single quotes too, and mixed with structural predicates.
  EXPECT_TRUE(ParsePattern("//a[.='x']").ok());
  EXPECT_TRUE(ParsePattern("//a[./b][.=\"x\"]/c").ok());
  // Errors.
  EXPECT_FALSE(ParsePattern("//a[.=x]").ok());
  EXPECT_FALSE(ParsePattern("//a[.=\"x]").ok());
}

TEST(ValuePredicateTest, AllMatchersFilterByValue) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  TwigMatcher twig(db.get());
  JoinMatcher join(db.get());

  auto parsed = ParsePattern("//publication/year[.=\"2003\"]");
  ASSERT_TRUE(parsed.ok());
  auto twig_matches = twig.FindMatches(parsed->pattern);
  ASSERT_TRUE(twig_matches.ok());
  // Pubs 1 and 3 have a 2003 year child.
  EXPECT_EQ(twig_matches->size(), 2u);
  auto join_matches = join.FindMatches(parsed->pattern);
  ASSERT_TRUE(join_matches.ok());
  // (SortedWitnesses defined below; compare sizes then full sets after
  // its definition via the equivalence tests.)
  EXPECT_EQ(join_matches->size(), 2u);

  // Value on the root node.
  auto name = ParsePattern("//name[.=\"John\"]");
  ASSERT_TRUE(name.ok());
  auto johns = twig.FindMatches(name->pattern);
  ASSERT_TRUE(johns.ok());
  EXPECT_EQ(johns->size(), 2u);

  // Attribute value predicates.
  auto attr = ParsePattern("//publisher/@id[.=\"p1\"]");
  ASSERT_TRUE(attr.ok());
  auto p1 = twig.FindMatches(attr->pattern);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->size(), 2u);  // pubs 1 and 4

  // Unknown value: no matches anywhere.
  auto none = ParsePattern("//year[.=\"1999\"]");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(twig.FindMatches(none->pattern)->empty());
  EXPECT_TRUE(join.FindMatches(none->pattern)->empty());
}

TEST(ValuePredicateTest, EmbedsRespectsFilter) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  TwigMatcher twig(db.get());
  auto parsed = ParsePattern("publication[./year[.=\"2005\"]]");
  ASSERT_TRUE(parsed.ok());
  const auto& pubs = db->NodesWithTag("publication");
  auto pub2 = twig.Embeds(parsed->pattern,
                          {{parsed->pattern.root(), pubs[1]}});
  ASSERT_TRUE(pub2.ok());
  EXPECT_TRUE(*pub2);
  auto pub1 = twig.Embeds(parsed->pattern,
                          {{parsed->pattern.root(), pubs[0]}});
  ASSERT_TRUE(pub1.ok());
  EXPECT_FALSE(*pub1);
}

// --- Join-plan matcher (structural-join evaluation, §3.4) ---

std::vector<WitnessTree> SortedWitnesses(std::vector<WitnessTree> w) {
  std::sort(w.begin(), w.end(),
            [](const WitnessTree& a, const WitnessTree& b) {
              return a.bindings < b.bindings;
            });
  return w;
}

class JoinMatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenFigure1Db();
    ASSERT_NE(db_, nullptr);
  }
  std::unique_ptr<Database> db_;
};

TEST_F(JoinMatcherTest, AgreesWithTwigMatcherOnFigure1) {
  TwigMatcher twig(db_.get());
  JoinMatcher join(db_.get());
  for (const char* text :
       {"//publication/year", "//publication//author",
        "//publication[./author/name][.//publisher/@id]/year",
        "//publication/publisher?", "//publication[./author]/publisher",
        "//pubData/*", "//publication//name", "//nosuchtag"}) {
    auto parsed = ParsePattern(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto twig_matches = twig.FindMatches(parsed->pattern);
    auto join_matches = join.FindMatches(parsed->pattern);
    ASSERT_TRUE(twig_matches.ok()) << text;
    ASSERT_TRUE(join_matches.ok()) << text;
    EXPECT_EQ(SortedWitnesses(*twig_matches), SortedWitnesses(*join_matches))
        << text;
  }
}

TEST_F(JoinMatcherTest, StatsCountJoins) {
  JoinMatcher join(db_.get());
  auto parsed = ParsePattern("//publication[./author/name]/year");
  ASSERT_TRUE(parsed.ok());
  auto matches = join.FindMatches(parsed->pattern);
  ASSERT_TRUE(matches.ok());
  // One structural join per edge: author, name, year.
  EXPECT_EQ(join.stats().structural_joins, 3u);
  EXPECT_GT(join.stats().join_pairs, 0u);
}

class JoinMatcherPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinMatcherPropertyTest, AgreesWithTwigMatcherOnRandomTrees) {
  Random rng(GetParam());
  auto db = testutil::OpenDb();
  ASSERT_NE(db, nullptr);
  for (int docs = 0; docs < 2; ++docs) {
    XmlDocument doc(testutil::RandomTree(&rng, 70, 3, 3));
    ASSERT_TRUE(db->LoadDocument(doc).ok());
  }
  TwigMatcher twig(db.get());
  JoinMatcher join(db.get());
  for (const char* text :
       {"//t0/t1", "//t0//t1", "//t0[./t1]/t2", "//t0/t1/t2",
        "//t0[.//t1]//t2", "//t1/t0?", "//t2[./t0?]//t1", "//t0//t0"}) {
    auto parsed = ParsePattern(text);
    ASSERT_TRUE(parsed.ok());
    auto twig_matches = twig.FindMatches(parsed->pattern);
    auto join_matches = join.FindMatches(parsed->pattern);
    ASSERT_TRUE(twig_matches.ok()) << text;
    ASSERT_TRUE(join_matches.ok()) << text;
    EXPECT_EQ(SortedWitnesses(*twig_matches), SortedWitnesses(*join_matches))
        << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinMatcherPropertyTest,
                         ::testing::Values(41, 42, 43, 44, 45, 46));

/// Property: every witness tree's bindings satisfy the pattern's edges.
class TwigWitnessPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TwigWitnessPropertyTest, WitnessesAreValidEmbeddings) {
  Random rng(GetParam());
  auto db = testutil::OpenDb();
  ASSERT_NE(db, nullptr);
  for (int docs = 0; docs < 2; ++docs) {
    XmlDocument doc(testutil::RandomTree(&rng, 60, 3, 3));
    ASSERT_TRUE(db->LoadDocument(doc).ok());
  }
  TwigMatcher matcher(db.get());
  for (const char* text :
       {"//t0/t1", "//t0//t1", "//t0[./t1]/t2", "//t0/t1/t2",
        "//t0[.//t1]//t2", "//t1/t0?"}) {
    auto parsed = ParsePattern(text);
    ASSERT_TRUE(parsed.ok());
    auto matches = matcher.FindMatches(parsed->pattern, /*limit=*/500);
    ASSERT_TRUE(matches.ok()) << text;
    for (const WitnessTree& w : *matches) {
      for (PatternNodeId id : parsed->pattern.LiveNodes()) {
        NodeId binding = w.bindings[static_cast<size_t>(id)];
        const PatternNode& pnode = parsed->pattern.node(id);
        if (binding == kInvalidNodeId) {
          EXPECT_TRUE(pnode.optional) << text;
          continue;
        }
        NodeRecord rec;
        ASSERT_TRUE(db->GetNode(binding, &rec).ok());
        EXPECT_EQ(db->tags().Name(rec.tag_id), pnode.tag) << text;
        if (id == parsed->pattern.root()) continue;
        NodeId parent_binding =
            w.bindings[static_cast<size_t>(pnode.parent)];
        ASSERT_NE(parent_binding, kInvalidNodeId);
        if (pnode.edge == StructuralAxis::kChild) {
          EXPECT_EQ(rec.parent, parent_binding) << text;
        } else {
          EXPECT_TRUE(*db->IsAncestor(parent_binding, binding)) << text;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwigWitnessPropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25));

}  // namespace
}  // namespace x3
