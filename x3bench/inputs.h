// Seeded input generation for the x3bench workloads: Treebank and DBLP
// XML text, X^3 query text, the served request stream and the write
// batches. Generation is benchmark work: it runs before set-up is timed,
// and the program only ever receives the generated text.

#ifndef X3BENCH_INPUTS_H_
#define X3BENCH_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cube/algorithm.h"

namespace x3bench {

/// One generated corpus of a tenant: its documents as XML text, the
/// matching DTD (for summarizability inference), the fact tag and the
/// X^3 query text whose cube the tenant serves.
struct CorpusText {
  std::string name;
  std::vector<std::string> documents;
  std::string dtd;
  std::string fact_tag;
  /// The tenant's query without an iceberg clause.
  std::string query_text;
  /// Fresh documents for write batches (ingest_mixed only).
  std::vector<std::string> fresh;
  size_t Bytes() const;
};

/// Dense Treebank trees with `axes` grouping axes (§4's generator). With
/// `summarizable` both coverage and disjointness hold (Fig. 8's
/// setting); without, both are violated (Fig. 9's, and the serving
/// tenant's).
CorpusText TreebankCorpus(uint64_t seed, size_t trees, size_t fresh,
                          size_t axes, bool summarizable);

/// DBLP articles (§4.5) cubed by author, month, year and journal.
CorpusText DblpCorpus(uint64_t seed, size_t articles, size_t fresh);

/// The query text with an iceberg clause when `min_count` > 1.
std::string QueryWithThreshold(const std::string& query_text,
                               int64_t min_count);

/// One served request.
struct RequestSpec {
  size_t tenant = 0;
  /// nullopt = the full cube.
  std::optional<uint32_t> target;
  x3::CubeAlgorithm algorithm = x3::CubeAlgorithm::kTDCust;
  int64_t min_count = 0;
};

/// Requests per round of each tenant (Treebank, DBLP). The shares are
/// unequal so that the median request falls inside one tenant's
/// latencies: with equal shares it sits on the boundary between the two
/// and reads the slowest Treebank request or the fastest DBLP one.
constexpr size_t kRoundShare[] = {64, 192};

/// One round of the served request stream: for each tenant its
/// kRoundShare requests, of which 1 in 8 asks for the full cube and the
/// rest are dealt round-robin over the tenant's cuboids, with the
/// algorithms (safe and unsafe variants, every 7th) and the iceberg
/// threshold (every 5th asks for count >= 2) dealt with strides coprime to
/// the cuboid counts, so every cuboid meets each of them; then the round
/// is shuffled by `state`.
std::vector<RequestSpec> RequestRound(uint64_t* state,
                                      const std::vector<uint64_t>& cuboids);

/// Deterministic 64-bit stream step (splitmix64).
uint64_t NextRandom(uint64_t* state);

/// Fisher-Yates shuffle driven by NextRandom.
template <typename T>
void Shuffle(uint64_t* state, std::vector<T>* items) {
  for (size_t i = items->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(NextRandom(state) % i);
    std::swap((*items)[i - 1], (*items)[j]);
  }
}

}  // namespace x3bench

#endif  // X3BENCH_INPUTS_H_
