#ifndef X3_STORAGE_EXTERNAL_SORTER_H_
#define X3_STORAGE_EXTERNAL_SORTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/exec.h"
#include "util/result.h"
#include "util/status.h"

namespace x3 {

/// Pull-iterator over sorted records.
class SortedStream {
 public:
  virtual ~SortedStream() = default;

  /// Advances to the next record. Returns false at end of stream; on
  /// error sets *status (records may not be consumed after an error).
  virtual bool Next(std::string* record, Status* status) = 0;
};

/// Counters describing a sort's execution strategy.
struct SortStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t runs_spilled = 0;
  uint64_t spill_bytes = 0;
  uint64_t merge_passes = 0;
  bool in_memory = true;
};

/// External merge sort over variable-length byte records, in unsigned
/// bytewise order (std::string's own comparison; a proper prefix sorts
/// first). Group keys are big-endian key fields, so this is the order
/// the TD family aggregates by.
///
/// The paper's algorithms "used the quicksort for an in-memory sort, and
/// the mergesort for an external sort" (§4); this class is exactly that
/// policy: records are buffered and quicksorted while they fit in the
/// `MemoryBudget`; when the budget is exhausted the buffer is sorted and
/// spilled as a run, and `Finish()` returns a k-way merge over the runs
/// (cascaded into multiple passes when there are more than kMergeFanIn).
///
/// Runs are block-framed: records are packed into ~64 KiB blocks, each
/// stored as [raw u32][stored u32][payload] where stored < raw means a
/// compressed payload and stored == raw a stored-raw fallback.
/// SortStats::spill_bytes counts these on-disk bytes.
class ExternalSorter {
 public:
  /// Runs merged at once.
  static constexpr size_t kMergeFanIn = 64;

  /// `ctx` supplies the budget buffered records are charged to, the
  /// temp files runs spill to, and the cancellation and deadline polled
  /// during spills and merge passes. A null `ctx`, or one without a
  /// bounded budget, gives an unlimited in-memory sort.
  explicit ExternalSorter(ExecutionContext* ctx);
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Adds one record.
  Status Add(std::string_view record);

  /// Completes the sort; after this, Add() is invalid. The returned
  /// stream yields records in bytewise order (duplicates preserved,
  /// stable not guaranteed).
  Result<std::unique_ptr<SortedStream>> Finish();

  const SortStats& stats() const { return stats_; }

 private:
  Status SpillBuffer();
  /// Reduces runs_ to at most kMergeFanIn via intermediate merges.
  Status CascadeMerges();

  ExecutionContext* ctx_;
  /// The bounded budget records are charged to; nullptr = unlimited.
  MemoryBudget* budget_ = nullptr;
  std::vector<std::string> buffer_;
  size_t reserved_bytes_ = 0;  // charged to budget_ for buffer_
  std::vector<std::string> runs_;  // spill file paths
  SortStats stats_;
  bool finished_ = false;
};

}  // namespace x3

#endif  // X3_STORAGE_EXTERNAL_SORTER_H_
