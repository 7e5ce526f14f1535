#include "inputs.h"

#include "gen/dblp_gen.h"
#include "gen/treebank_gen.h"
#include "gen/workload.h"
#include "xml/xml_writer.h"

namespace x3bench {

namespace {

std::string Text(const x3::XmlDocument& doc) {
  x3::XmlWriteOptions options;
  options.indent = false;
  options.declaration = false;
  return x3::WriteXml(doc, options);
}

}  // namespace

size_t CorpusText::Bytes() const {
  size_t bytes = 0;
  for (const std::string& doc : documents) bytes += doc.size();
  return bytes;
}

CorpusText TreebankCorpus(uint64_t seed, size_t trees, size_t fresh,
                          size_t axes, bool summarizable) {
  x3::ExperimentSetting setting;
  setting.num_axes = axes;
  setting.num_trees = trees;
  setting.coverage_holds = summarizable;
  setting.disjointness_holds = summarizable;
  setting.dense = true;
  setting.seed = seed;
  x3::TreebankGenerator generator(x3::MakeTreebankConfig(setting));

  CorpusText corpus;
  corpus.name = "treebank";
  corpus.dtd = generator.MatchingDtd();
  corpus.fact_tag = x3::TreebankRootTag();
  for (size_t i = 0; i < trees; ++i) {
    corpus.documents.push_back(Text(generator.NextTree()));
  }
  for (size_t i = 0; i < fresh; ++i) {
    corpus.fresh.push_back(Text(generator.NextTree()));
  }

  std::string bindings = "for $f in doc(\"treebank.xml\")//" +
                         corpus.fact_tag;
  std::string by;
  for (size_t a = 0; a < axes; ++a) {
    std::string var = "$a" + std::to_string(a);
    bindings += ",\n    " + var + " in $f/" + x3::TreebankAxisTag(a);
    by += (a == 0 ? "" : ", ") + var + " (LND)";
  }
  corpus.query_text = bindings + "\nX^3 $f by " + by + "\nreturn COUNT($f)";
  return corpus;
}

CorpusText DblpCorpus(uint64_t seed, size_t articles, size_t fresh) {
  x3::DblpConfig config;
  config.seed = seed;
  x3::DblpGenerator generator(config);

  CorpusText corpus;
  corpus.name = "dblp";
  corpus.dtd = x3::DblpDtd();
  corpus.fact_tag = "article";
  for (size_t i = 0; i < articles; ++i) {
    corpus.documents.push_back(Text(generator.NextArticle()));
  }
  for (size_t i = 0; i < fresh; ++i) {
    corpus.fresh.push_back(Text(generator.NextArticle()));
  }
  corpus.query_text =
      "for $b in doc(\"dblp.xml\")//article,\n"
      "    $au in $b/author, $m in $b/month,\n"
      "    $y in $b/year, $j in $b/journal\n"
      "X^3 $b by $au (LND), $m (LND), $y (LND), $j (LND)\n"
      "return COUNT($b)";
  return corpus;
}

std::string QueryWithThreshold(const std::string& query_text,
                               int64_t min_count) {
  if (min_count <= 1) return query_text;
  return query_text + "\nhaving count >= " + std::to_string(min_count);
}

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<RequestSpec> RequestRound(uint64_t* state,
                                      const std::vector<uint64_t>& cuboids) {
  static constexpr x3::CubeAlgorithm kAlgorithms[] = {
      x3::CubeAlgorithm::kCounter,  x3::CubeAlgorithm::kBUC,
      x3::CubeAlgorithm::kBUCOpt,   x3::CubeAlgorithm::kBUCCust,
      x3::CubeAlgorithm::kTD,       x3::CubeAlgorithm::kTDOptAll,
      x3::CubeAlgorithm::kTDCust,
  };
  constexpr size_t kNumAlgorithms =
      sizeof(kAlgorithms) / sizeof(kAlgorithms[0]);
  std::vector<RequestSpec> round;
  for (size_t t = 0; t < cuboids.size(); ++t) {
    std::vector<RequestSpec> block;
    size_t requests = kRoundShare[t];
    size_t targeted = requests - requests / 8;
    for (size_t k = 0; k < targeted; ++k) {
      RequestSpec spec;
      spec.target = static_cast<uint32_t>(k % cuboids[t]);
      block.push_back(spec);
    }
    block.resize(requests);
    for (size_t i = 0; i < block.size(); ++i) {
      block[i].tenant = t;
      block[i].algorithm = kAlgorithms[i % kNumAlgorithms];
      block[i].min_count = i % 5 == 4 ? 2 : 0;
    }
    round.insert(round.end(), block.begin(), block.end());
  }
  Shuffle(state, &round);
  return round;
}

}  // namespace x3bench
