#ifndef X3_CUBE_CELL_TABLE_H_
#define X3_CUBE_CELL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "cube/group_walk.h"
#include "util/logging.h"

namespace x3 {

/// An open-addressing index from fixed-width cell keys (key fields in
/// cube/group_walk.h's format) to dense cell numbers 0, 1, 2, ... in
/// first-seen order. The table holds only the numbers: the keys stay in
/// the caller's contiguous buffer, cell c's at bytes
/// [c * key_size, (c + 1) * key_size). Linear probing over a
/// power-of-two slot array that is never more than half full.
class CellTable {
 public:
  /// An empty table over keys of `key_size` bytes, a multiple of
  /// kKeyFieldBytes. A zero-width key (the apex cuboid) has one cell.
  explicit CellTable(size_t key_size) : key_size_(key_size) {
    X3_DCHECK(key_size % kKeyFieldBytes == 0);
  }

  /// Indexes the `num_cells` distinct keys already in `keys` as cells
  /// 0 .. num_cells - 1.
  CellTable(size_t key_size, const std::vector<char>& keys, size_t num_cells)
      : CellTable(key_size) {
    Resize(SlotsFor(num_cells), keys.data(), num_cells);
    size_ = num_cells;
  }

  /// The number of `key`'s cell. A key not seen before gets the next
  /// number, and its bytes are appended to `*keys` (which must not hold
  /// `key` itself).
  uint32_t FindOrAdd(const char* key, std::vector<char>* keys) {
    if ((size_ + 1) * 2 > slots_.size()) {
      Resize(SlotsFor(size_ + 1), keys->data(), size_);
    }
    for (size_t i = Hash(key) & mask_;; i = (i + 1) & mask_) {
      const uint32_t cell = slots_[i];
      if (cell == kEmpty) {
        X3_CHECK(size_ < kEmpty);
        slots_[i] = static_cast<uint32_t>(size_);
        keys->insert(keys->end(), key, key + key_size_);
        return static_cast<uint32_t>(size_++);
      }
      if (key_size_ == 0 ||
          std::memcmp(keys->data() + cell * key_size_, key, key_size_) == 0) {
        return cell;
      }
    }
  }

  /// Cells indexed so far.
  size_t size() const { return size_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// The power-of-two slot count that keeps `cells` at most half full.
  static size_t SlotsFor(size_t cells) {
    size_t slots = 16;
    while (slots < cells * 2) slots *= 2;
    return slots;
  }

  /// Multiply-xorshift over the key's 4-byte fields: sequential value
  /// ids (DBLP's dictionaries are dense) spread over every slot bit.
  size_t Hash(const char* key) const {
    uint64_t h = key_size_;
    for (size_t i = 0; i < key_size_; i += kKeyFieldBytes) {
      uint32_t field;
      std::memcpy(&field, key + i, sizeof(field));
      h = (h ^ field) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 32;
    }
    return static_cast<size_t>(h);
  }

  /// Rebuilds the slots at `slots` capacity over the first `cells` keys
  /// of `keys`.
  void Resize(size_t slots, const char* keys, size_t cells) {
    slots_.assign(slots, kEmpty);
    mask_ = slots - 1;
    for (size_t c = 0; c < cells; ++c) {
      size_t i = Hash(keys + c * key_size_) & mask_;
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = static_cast<uint32_t>(c);
    }
  }

  size_t key_size_;
  size_t size_ = 0;
  size_t mask_ = 0;
  std::vector<uint32_t> slots_;
};

}  // namespace x3

#endif  // X3_CUBE_CELL_TABLE_H_
