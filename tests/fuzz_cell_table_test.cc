// Deterministic differential test of the cell table (cube/cell_table.h)
// against a std::unordered_map oracle. Seeded runs draw keys of 0 to 5
// key fields from small value ranges (many repeats, short probe
// chains) and from sequential ones (dense value ids, as DBLP's
// dictionaries hand out, which a weak hash would cluster), and replay
// earlier keys. Every FindOrAdd must return the oracle's number: a new
// key the next dense number in first-seen order, a repeat the number it
// got first. The tables grow through many doublings and must keep every
// key.

#include "cube/cell_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cube/group_walk.h"
#include "util/random.h"

namespace x3 {
namespace {

/// How one key field draws its values.
enum class FieldRange { kSmall, kSequential, kAny };

std::string DrawKey(Random& rng, const std::vector<FieldRange>& ranges,
                    uint32_t* next_sequential) {
  std::string key(ranges.size() * kKeyFieldBytes, '\0');
  for (size_t i = 0; i < ranges.size(); ++i) {
    uint32_t value = 0;
    switch (ranges[i]) {
      case FieldRange::kSmall:
        value = static_cast<uint32_t>(rng.Uniform(6));
        break;
      case FieldRange::kSequential:
        // Mostly the next id, sometimes a recent one again.
        value = rng.Bernoulli(0.8)
                    ? (*next_sequential)++
                    : *next_sequential -
                          static_cast<uint32_t>(rng.Uniform(
                              std::min<uint32_t>(*next_sequential, 64) + 1));
        break;
      case FieldRange::kAny:
        value = rng.Bernoulli(0.05) ? kNullKeyField
                                    : static_cast<uint32_t>(rng.Next());
        break;
    }
    WriteKeyField(key.data() + i * kKeyFieldBytes, value);
  }
  return key;
}

TEST(CellTableFuzzTest, MatchesUnorderedMapOracle) {
  constexpr size_t kCallsPerSeed = 50000;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Random rng(seed);
    for (size_t fields = 0; fields <= 5; ++fields) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(fields) + " fields");
      std::vector<FieldRange> ranges(fields);
      for (FieldRange& range : ranges) {
        range = static_cast<FieldRange>(rng.Uniform(3));
      }
      // At least one sequential field, so every width past zero has
      // thousands of distinct keys.
      if (fields > 0) ranges[rng.Uniform(fields)] = FieldRange::kSequential;

      const size_t key_size = fields * kKeyFieldBytes;
      CellTable table(key_size);
      std::vector<char> keys;
      std::unordered_map<std::string, uint32_t> oracle;
      uint32_t next_sequential = static_cast<uint32_t>(rng.Uniform(1000));
      for (size_t call = 0; call < kCallsPerSeed / 6; ++call) {
        std::string key;
        if (!oracle.empty() && rng.Bernoulli(0.3)) {
          // A repeat, copied out of the table's buffer.
          const size_t cell = rng.Uniform(oracle.size());
          key.assign(keys.data() + cell * key_size, key_size);
        } else {
          key = DrawKey(rng, ranges, &next_sequential);
        }
        const uint32_t cell = table.FindOrAdd(key.data(), &keys);
        auto [it, added] =
            oracle.emplace(key, static_cast<uint32_t>(oracle.size()));
        ASSERT_EQ(cell, it->second) << (added ? "new key" : "repeat");
        ASSERT_EQ(table.size(), oracle.size());
        ASSERT_EQ(keys.size(), oracle.size() * key_size);
        ASSERT_EQ(std::string(keys.data() + cell * key_size, key_size), key);
      }

      if (fields == 0) {
        EXPECT_EQ(oracle.size(), 1u) << "every zero-width key is one cell";
      } else {
        // 16 slots hold 8 cells; past 256 cells the table has doubled at
        // least five times.
        EXPECT_GT(oracle.size(), 256u);
      }
      // Growth kept every key: each one still finds its own number, in
      // this table and in one rebuilt from the key buffer.
      CellTable rebuilt(key_size, keys, table.size());
      std::vector<char> rebuilt_keys = keys;
      for (const auto& [key, number] : oracle) {
        ASSERT_EQ(table.FindOrAdd(key.data(), &keys), number);
        ASSERT_EQ(rebuilt.FindOrAdd(key.data(), &rebuilt_keys), number);
      }
      EXPECT_EQ(table.size(), oracle.size());
      EXPECT_EQ(rebuilt.size(), oracle.size());
      EXPECT_EQ(rebuilt_keys.size(), keys.size());
    }
  }
}

}  // namespace
}  // namespace x3
