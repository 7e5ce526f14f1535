#ifndef X3_UTIL_FACT_ID_SET_H_
#define X3_UTIL_FACT_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace x3 {

/// A roaring-style compressed set of fact ids (uint32 row indexes).
///
/// The cube algorithms are set-dominated: BUC partitions facts
/// recursively, the view store keeps contributing-fact lists per cell,
/// and iceberg conditions count distinct facts. A `std::vector` or
/// `std::unordered_set` of 4/8-byte ids costs 4-60 bytes per element;
/// this structure keys on the high 16 bits and stores each 64K-chunk
/// in one of two containers chosen by density:
///
///   array container:  sorted uint16 list, <= kArrayContainerMax
///                     (4096) elements — 2 bytes per sparse id.
///   bitmap container: 1024 x uint64 fixed bitmap (8 KB) — 0.125 bits
///                     overhead per possible id once a chunk is dense
///                     (> 4096 elements means < 16 bits per id, so the
///                     bitmap is always smaller past the threshold).
///
/// An array container promotes to a bitmap when an Add grows it past
/// kArrayContainerMax. Iteration is always in ascending id order — BUC
/// partition walks preserve their previous sorted-vector semantics
/// exactly.
///
/// Promotions feed x3_factset_container_promotions_total in the metric
/// registry.
///
/// Not thread-safe; use external synchronization (the view store
/// publishes sets under its own mutex).
class FactIdSet {
 public:
  /// Array containers at most this long; one past it they become
  /// bitmaps. 4096 * 2 bytes = the break-even point vs an 8 KB bitmap.
  static constexpr size_t kArrayContainerMax = 4096;

  FactIdSet() = default;

  /// Builds from any sequence of ids (need not be sorted or unique).
  static FactIdSet FromIds(const std::vector<uint32_t>& ids);

  /// Inserts `id` (idempotent). Amortized O(1) for ascending inserts;
  /// O(container size) worst case for random order into an array
  /// container.
  void Add(uint32_t id);

  bool Contains(uint32_t id) const;

  /// Number of distinct ids. O(1) — maintained incrementally.
  size_t cardinality() const { return cardinality_; }
  bool empty() const { return cardinality_ == 0; }

  void Clear();

  bool operator==(const FactIdSet& other) const;
  bool operator!=(const FactIdSet& other) const { return !(*this == other); }

  /// Calls `fn(uint32_t id)` for every element in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Chunk& chunk : chunks_) {
      uint32_t base = static_cast<uint32_t>(chunk.key) << 16;
      if (chunk.kind == ContainerKind::kArray) {
        for (uint16_t low : chunk.array) fn(base | low);
      } else {
        for (size_t word = 0; word < kBitmapWords; ++word) {
          uint64_t bits = chunk.bitmap[word];
          while (bits != 0) {
            int bit = __builtin_ctzll(bits);
            fn(base | static_cast<uint32_t>(word * 64 + bit));
            bits &= bits - 1;
          }
        }
      }
    }
  }

  /// Flattens to a sorted vector (compatibility shim for callers that
  /// still need contiguous ids, e.g. serialization).
  std::vector<uint32_t> ToVector() const;

  /// Heap bytes of the container storage (for MemoryBudget charging).
  size_t ApproxBytes() const;

 private:
  static constexpr size_t kBitmapWords = 65536 / 64;

  enum class ContainerKind : uint8_t { kArray, kBitmap };

  /// One 64K-aligned chunk of the id space. Exactly one of
  /// `array`/`bitmap` is active, per `kind` (a variant by hand: the
  /// inactive vector stays empty, so the space cost is three pointers).
  struct Chunk {
    uint16_t key = 0;  // id >> 16
    ContainerKind kind = ContainerKind::kArray;
    std::vector<uint16_t> array;   // sorted, unique
    std::vector<uint64_t> bitmap;  // kBitmapWords when active
  };

  /// Chunk for `key`, created (as an empty array container) on demand.
  Chunk* FindOrCreateChunk(uint16_t key);
  const Chunk* FindChunk(uint16_t key) const;
  static void Promote(Chunk* chunk);

  /// Sorted by key; no empty chunks.
  std::vector<Chunk> chunks_;
  size_t cardinality_ = 0;
};

}  // namespace x3

#endif  // X3_UTIL_FACT_ID_SET_H_
