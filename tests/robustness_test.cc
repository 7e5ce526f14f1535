// Robustness sweeps: every parser in the library must return a clean
// Status (never crash, never hang) on corrupted, truncated and random
// inputs. These are deterministic fuzz-lite tests: mutations of valid
// inputs plus unstructured random bytes, seeded.

#include <gtest/gtest.h>

#include <string>

#include "pattern/pattern_parser.h"
#include "schema/dtd_parser.h"
#include "tests/test_helpers.h"
#include "util/random.h"
#include "x3/parser.h"
#include "xml/xml_parser.h"

namespace x3 {
namespace {

std::string RandomBytes(Random* rng, size_t len) {
  std::string out(len, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng->Uniform(256));
  }
  return out;
}

std::string Mutate(Random* rng, std::string input, int mutations) {
  for (int m = 0; m < mutations && !input.empty(); ++m) {
    size_t pos = rng->Uniform(input.size());
    switch (rng->Uniform(3)) {
      case 0:  // flip
        input[pos] = static_cast<char>(rng->Uniform(256));
        break;
      case 1:  // delete
        input.erase(pos, 1);
        break;
      case 2:  // duplicate
        input.insert(pos, 1, input[pos]);
        break;
    }
  }
  return input;
}

class RobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RobustnessTest, XmlParserNeverCrashes) {
  Random rng(GetParam());
  const std::string valid = testutil::kFigure1Xml;
  for (int i = 0; i < 200; ++i) {
    std::string input = Mutate(&rng, valid, 1 + static_cast<int>(
                                                   rng.Uniform(20)));
    testutil::Consume(ParseXml(input));  // must return, either way
  }
  for (int i = 0; i < 100; ++i) {
    testutil::Consume(ParseXml(RandomBytes(&rng, rng.Uniform(300))));
  }
  // Truncations of a valid document.
  for (size_t len = 0; len < valid.size(); len += 7) {
    testutil::Consume(ParseXml(std::string_view(valid).substr(0, len)));
  }
}

TEST_P(RobustnessTest, DtdParserNeverCrashes) {
  Random rng(GetParam() + 1);
  const std::string valid =
      "<!ELEMENT a (b*, c?, (d | e)+)>\n"
      "<!ATTLIST a id ID #REQUIRED>\n"
      "<!ELEMENT b (#PCDATA)>\n";
  for (int i = 0; i < 200; ++i) {
    testutil::Consume(
        ParseDtd(Mutate(&rng, valid, 1 + static_cast<int>(rng.Uniform(15)))));
  }
  for (int i = 0; i < 100; ++i) {
    testutil::Consume(ParseDtd(RandomBytes(&rng, rng.Uniform(200))));
  }
}

TEST_P(RobustnessTest, PatternParserNeverCrashes) {
  Random rng(GetParam() + 2);
  const std::string valid =
      "//publication[./author/name][.//publisher/@id]/year?";
  for (int i = 0; i < 300; ++i) {
    testutil::Consume(ParsePattern(
        Mutate(&rng, valid, 1 + static_cast<int>(rng.Uniform(10)))));
  }
  for (int i = 0; i < 100; ++i) {
    testutil::Consume(ParsePattern(RandomBytes(&rng, rng.Uniform(80))));
  }
}

TEST_P(RobustnessTest, QueryParserNeverCrashes) {
  Random rng(GetParam() + 3);
  const std::string valid =
      "for $b in doc(\"book.xml\")//publication, $n in $b/author/name "
      "X^3 $b/@id by substring($n, 1, 2) (LND, SP, PC-AD) "
      "return COUNT($b) having count >= 2";
  for (int i = 0; i < 300; ++i) {
    testutil::Consume(ParseX3Query(
        Mutate(&rng, valid, 1 + static_cast<int>(rng.Uniform(12)))));
  }
  for (int i = 0; i < 100; ++i) {
    testutil::Consume(ParseX3Query(RandomBytes(&rng, rng.Uniform(120))));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustnessTest,
                         ::testing::Values(1001, 1002, 1003));

}  // namespace
}  // namespace x3
