#include "util/fact_id_set.h"

#include <algorithm>

#include "util/metrics.h"

namespace x3 {

namespace {

Counter& PromotionsCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_factset_container_promotions_total",
      "FactIdSet array containers promoted to bitmaps");
  return *c;
}

inline bool BitmapTest(const std::vector<uint64_t>& bitmap, uint16_t low) {
  return (bitmap[low >> 6] >> (low & 63)) & 1;
}

inline void BitmapSet(std::vector<uint64_t>& bitmap, uint16_t low) {
  bitmap[low >> 6] |= uint64_t{1} << (low & 63);
}

}  // namespace

FactIdSet FactIdSet::FromIds(const std::vector<uint32_t>& ids) {
  FactIdSet set;
  for (uint32_t id : ids) set.Add(id);
  return set;
}

FactIdSet::Chunk* FactIdSet::FindOrCreateChunk(uint16_t key) {
  auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), key,
      [](const Chunk& chunk, uint16_t k) { return chunk.key < k; });
  if (it != chunks_.end() && it->key == key) return &*it;
  it = chunks_.insert(it, Chunk{});
  it->key = key;
  return &*it;
}

const FactIdSet::Chunk* FactIdSet::FindChunk(uint16_t key) const {
  auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), key,
      [](const Chunk& chunk, uint16_t k) { return chunk.key < k; });
  if (it != chunks_.end() && it->key == key) return &*it;
  return nullptr;
}

void FactIdSet::Promote(Chunk* chunk) {
  std::vector<uint64_t> bitmap(kBitmapWords, 0);
  for (uint16_t low : chunk->array) BitmapSet(bitmap, low);
  chunk->array.clear();
  chunk->array.shrink_to_fit();
  chunk->bitmap = std::move(bitmap);
  chunk->kind = ContainerKind::kBitmap;
  PromotionsCounter().Increment();
}

void FactIdSet::Add(uint32_t id) {
  Chunk* chunk = FindOrCreateChunk(static_cast<uint16_t>(id >> 16));
  uint16_t low = static_cast<uint16_t>(id);
  if (chunk->kind == ContainerKind::kBitmap) {
    if (BitmapTest(chunk->bitmap, low)) return;
    BitmapSet(chunk->bitmap, low);
    ++cardinality_;
    return;
  }
  // Fast path: ascending inserts append.
  if (chunk->array.empty() || chunk->array.back() < low) {
    chunk->array.push_back(low);
  } else {
    auto it =
        std::lower_bound(chunk->array.begin(), chunk->array.end(), low);
    if (it != chunk->array.end() && *it == low) return;
    chunk->array.insert(it, low);
  }
  ++cardinality_;
  if (chunk->array.size() > kArrayContainerMax) Promote(chunk);
}

bool FactIdSet::Contains(uint32_t id) const {
  const Chunk* chunk = FindChunk(static_cast<uint16_t>(id >> 16));
  if (chunk == nullptr) return false;
  uint16_t low = static_cast<uint16_t>(id);
  if (chunk->kind == ContainerKind::kBitmap) {
    return BitmapTest(chunk->bitmap, low);
  }
  return std::binary_search(chunk->array.begin(), chunk->array.end(), low);
}

void FactIdSet::Clear() {
  chunks_.clear();
  cardinality_ = 0;
}

bool FactIdSet::operator==(const FactIdSet& other) const {
  if (cardinality_ != other.cardinality_) return false;
  // Compare elementwise: equality is of the logical sets, whatever
  // containers hold them.
  bool equal = true;
  ForEach([&](uint32_t id) {
    if (equal && !other.Contains(id)) equal = false;
  });
  return equal;
}

std::vector<uint32_t> FactIdSet::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(cardinality_);
  ForEach([&out](uint32_t id) { out.push_back(id); });
  return out;
}

size_t FactIdSet::ApproxBytes() const {
  size_t bytes = sizeof(*this) + chunks_.capacity() * sizeof(Chunk);
  for (const Chunk& chunk : chunks_) {
    bytes += chunk.array.capacity() * sizeof(uint16_t) +
             chunk.bitmap.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace x3
