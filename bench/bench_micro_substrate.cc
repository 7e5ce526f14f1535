// Substrate micro-benchmarks: the building blocks under the cube
// operator — XML parsing/shredding, buffer-pool node access, structural
// joins, twig matching, external sorting, lattice construction and
// fact-table materialization.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

#include <memory>

#include "cube/cube_spec.h"
#include "gen/treebank_gen.h"
#include "pattern/join_matcher.h"
#include "pattern/pattern_parser.h"
#include "pattern/twig_matcher.h"
#include "storage/external_sorter.h"
#include "storage/temp_file.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "xdb/database.h"
#include "xdb/structural_join.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace x3 {
namespace {

std::string MakeTreebankXmlCorpus(size_t trees) {
  TreebankConfig config;
  config.num_axes = 4;
  config.missing_probability = 0.2;
  TreebankGenerator gen(config);
  std::string xml = "<corpus>";
  XmlWriteOptions compact;
  compact.indent = false;
  compact.declaration = false;
  for (size_t i = 0; i < trees; ++i) {
    xml += WriteXml(*gen.NextTree().root(), compact);
  }
  xml += "</corpus>";
  return xml;
}

std::unique_ptr<Database> MakeLoadedDb(size_t trees) {
  auto db = Database::Open({});
  X3_CHECK(db.ok());
  TreebankConfig config;
  config.num_axes = 4;
  config.missing_probability = 0.2;
  TreebankGenerator gen(config);
  X3_CHECK(gen.LoadInto(db->get(), trees).ok());
  return std::move(*db);
}

void BM_XmlParse(benchmark::State& state) {
  std::string xml = MakeTreebankXmlCorpus(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto doc = ParseXml(xml);
    X3_CHECK(doc.ok());
    benchmark::DoNotOptimize(doc->NodeCount());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParse)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_DocumentShred(benchmark::State& state) {
  std::string xml = MakeTreebankXmlCorpus(static_cast<size_t>(state.range(0)));
  auto doc = ParseXml(xml);
  X3_CHECK(doc.ok());
  for (auto _ : state) {
    auto db = Database::Open({});
    X3_CHECK(db.ok());
    X3_CHECK((*db)->LoadDocument(*doc).ok());
    benchmark::DoNotOptimize((*db)->node_count());
  }
}
BENCHMARK(BM_DocumentShred)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_NodeFetch(benchmark::State& state) {
  auto db = MakeLoadedDb(1000);
  Random rng(1);
  NodeRecord rec;
  for (auto _ : state) {
    NodeId id = static_cast<NodeId>(rng.Uniform(db->node_count()));
    X3_CHECK(db->GetNode(id, &rec).ok());
    benchmark::DoNotOptimize(rec.end);
  }
}
BENCHMARK(BM_NodeFetch);

void BM_StructuralJoin(benchmark::State& state) {
  auto db = MakeLoadedDb(static_cast<size_t>(state.range(0)));
  const auto& roots = db->NodesWithTag(TreebankRootTag());
  const auto& descendants = db->NodesWithTag(TreebankAxisTag(0));
  for (auto _ : state) {
    auto pairs =
        StructuralJoin(*db, roots, descendants, StructuralAxis::kDescendant);
    X3_CHECK(pairs.ok());
    benchmark::DoNotOptimize(pairs->size());
  }
  state.counters["pairs"] = static_cast<double>(
      StructuralJoin(*db, roots, descendants, StructuralAxis::kDescendant)
          ->size());
}
BENCHMARK(BM_StructuralJoin)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_TwigMatch(benchmark::State& state) {
  auto db = MakeLoadedDb(static_cast<size_t>(state.range(0)));
  auto parsed = ParsePattern(StringPrintf("//%s[./%s]/%s", TreebankRootTag(),
                                          TreebankAxisTag(0),
                                          TreebankAxisTag(1)));
  X3_CHECK(parsed.ok());
  TwigMatcher matcher(db.get());
  for (auto _ : state) {
    auto matches = matcher.FindMatches(parsed->pattern);
    X3_CHECK(matches.ok());
    benchmark::DoNotOptimize(matches->size());
  }
}
BENCHMARK(BM_TwigMatch)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

// The two pattern-evaluation strategies on the same chain pattern:
// node-at-a-time recursion and edge-at-a-time structural-join plans.
void BM_MatcherStrategies(benchmark::State& state) {
  auto db = MakeLoadedDb(2000);
  auto parsed = ParsePattern(StringPrintf("//%s//%s", TreebankRootTag(),
                                          TreebankAxisTag(0)));
  X3_CHECK(parsed.ok());
  int strategy = static_cast<int>(state.range(0));
  size_t matches_found = 0;
  for (auto _ : state) {
    if (strategy == 0) {
      TwigMatcher matcher(db.get());
      auto matches = matcher.FindMatches(parsed->pattern);
      X3_CHECK(matches.ok());
      matches_found = matches->size();
    } else {
      JoinMatcher matcher(db.get());
      auto matches = matcher.FindMatches(parsed->pattern);
      X3_CHECK(matches.ok());
      matches_found = matches->size();
    }
    benchmark::DoNotOptimize(matches_found);
  }
  state.counters["matches"] = static_cast<double>(matches_found);
  state.SetLabel(strategy == 0 ? "twig" : "join-plan");
}
BENCHMARK(BM_MatcherStrategies)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_ExternalSort(benchmark::State& state) {
  size_t records = static_cast<size_t>(state.range(0));
  bool external = state.range(1) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    TempFileManager temp;
    MemoryBudget budget(external ? 64 * 1024 : 0);  // 0 = unlimited
    ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
    ExternalSorter sorter(&ctx);
    Random rng(7);
    state.ResumeTiming();
    for (size_t i = 0; i < records; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%012llu",
                    static_cast<unsigned long long>(rng.Next() % 1000000));
      X3_CHECK(sorter.Add(buf).ok());
    }
    auto stream = sorter.Finish();
    X3_CHECK(stream.ok());
    std::string rec;
    Status s;
    size_t n = 0;
    while ((*stream)->Next(&rec, &s)) ++n;
    X3_CHECK(s.ok());
    X3_CHECK(n == records);
  }
}
BENCHMARK(BM_ExternalSort)
    ->Args({50000, 0})
    ->Args({50000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_LatticeConstruction(benchmark::State& state) {
  TreebankConfig config;
  config.num_axes = static_cast<size_t>(state.range(0));
  CubeQuery query = MakeTreebankQuery(config, RelaxationSet::All());
  for (auto _ : state) {
    auto lattice = BuildCubeLattice(query);
    X3_CHECK(lattice.ok());
    benchmark::DoNotOptimize(lattice->num_cuboids());
  }
}
BENCHMARK(BM_LatticeConstruction)->Arg(2)->Arg(4)->Arg(7);

void BM_FactTableBuild(benchmark::State& state) {
  auto db = MakeLoadedDb(static_cast<size_t>(state.range(0)));
  TreebankConfig config;
  config.num_axes = 4;
  CubeQuery query = MakeTreebankQuery(config);
  auto lattice = BuildCubeLattice(query);
  X3_CHECK(lattice.ok());
  for (auto _ : state) {
    auto facts = BuildFactTable(*db, query, *lattice);
    X3_CHECK(facts.ok());
    benchmark::DoNotOptimize(facts->size());
  }
}
BENCHMARK(BM_FactTableBuild)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace x3

int main(int argc, char** argv) {
  return x3::bench::RunRegisteredBenchmarks(argc, argv);
}
