#include "storage/external_sorter.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "storage/temp_file.h"
#include "util/compress.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace x3 {

namespace {

// Process-wide mirrors of SortStats (DESIGN.md §9): the struct stays
// the per-sort test surface, these feed the exported registry.
Counter& RunsSpilledCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_sort_runs_spilled_total", "Sorted runs spilled to temp files");
  return *c;
}
Counter& SpillBytesCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_sort_spill_bytes_total", "Bytes written to sort spill runs");
  return *c;
}
Counter& MergePassesCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_sort_merge_passes_total", "K-way merge passes over spilled runs");
  return *c;
}
Counter& SpillRawBytesCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_sort_spill_raw_bytes_total",
      "Uncompressed bytes framed into spill blocks");
  return *c;
}
Counter& SpillBlocksCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_sort_spill_blocks_total", "Blocks written to spill runs");
  return *c;
}

/// Fixed per-record bookkeeping charge (std::string header + vector slot
/// + allocator slack), in addition to payload bytes.
constexpr size_t kRecordOverhead = 48;

/// Target uncompressed size of one spill block. Blocks end only at
/// record boundaries, so a record larger than this makes one oversized
/// block rather than spanning two.
constexpr size_t kSpillBlockSize = 64 * 1024;

/// Ceiling on the raw-size field accepted when reading a block back —
/// a corrupt header must not drive a multi-gigabyte allocation.
constexpr uint32_t kMaxBlockRawSize = 1u << 30;

/// Writes records to a run file through the Env, framed into blocks:
///   [raw u32][stored u32][payload ...]
/// with stored < raw for a compressed payload and stored == raw for the
/// stored-raw fallback (incompressible block). Inside a block each
/// record is [len u32][bytes]. Field encoding is native-endian — runs
/// never leave the machine that wrote them.
class RunWriter {
 public:
  Status Open(Env* env, const std::string& path) {
    return writer_.Open(env, path);
  }

  Status Append(std::string_view record) {
    uint32_t len = static_cast<uint32_t>(record.size());
    block_.append(reinterpret_cast<const char*>(&len), sizeof(len));
    block_.append(record);
    if (block_.size() >= kSpillBlockSize) return FlushBlock();
    return Status::OK();
  }

  Status Close() {
    if (!block_.empty()) X3_RETURN_IF_ERROR(FlushBlock());
    return writer_.Close();
  }

  uint64_t bytes() const { return bytes_; }

 private:
  Status FlushBlock() {
    uint32_t raw = static_cast<uint32_t>(block_.size());
    CompressString(block_, &packed_);
    std::string_view payload =
        packed_.size() < block_.size() ? std::string_view(packed_)
                                       : std::string_view(block_);
    uint32_t stored = static_cast<uint32_t>(payload.size());
    X3_RETURN_IF_ERROR(writer_.Append(
        std::string_view(reinterpret_cast<const char*>(&raw), sizeof(raw))));
    X3_RETURN_IF_ERROR(writer_.Append(std::string_view(
        reinterpret_cast<const char*>(&stored), sizeof(stored))));
    X3_RETURN_IF_ERROR(writer_.Append(payload));
    bytes_ += sizeof(raw) + sizeof(stored) + stored;
    SpillRawBytesCounter().Increment(raw);
    SpillBlocksCounter().Increment();
    block_.clear();
    return Status::OK();
  }

  SequentialFileWriter writer_;
  std::string block_;   // pending uncompressed block
  std::string packed_;  // reused compression output
  uint64_t bytes_ = 0;
};

/// Reads a block-framed run back through the Env, inflating one block
/// at a time and serving records out of it; any malformed frame
/// surfaces as Corruption, never a crash or over-read.
class RunReader {
 public:
  Status Open(Env* env, const std::string& path) {
    path_ = path;
    return reader_.Open(env, path);
  }

  /// Returns false at EOF or on error (distinguished via *status).
  bool Next(std::string* record, Status* status) {
    if (pos_ >= block_.size()) {
      if (!LoadBlock(status)) return false;
    }
    if (pos_ + sizeof(uint32_t) > block_.size()) {
      *status = Status::Corruption("truncated record header in block of " +
                                   path_);
      return false;
    }
    uint32_t len = 0;
    std::memcpy(&len, block_.data() + pos_, sizeof(len));
    pos_ += sizeof(len);
    if (pos_ + len > block_.size()) {
      *status =
          Status::Corruption("record overruns block boundary in " + path_);
      return false;
    }
    record->assign(block_, pos_, len);
    pos_ += len;
    return true;
  }

 private:
  /// Reads and inflates the next block. Returns false at clean EOF or
  /// on error (distinguished via *status).
  bool LoadBlock(Status* status) {
    uint32_t header[2];  // raw, stored
    size_t got = 0;
    Status s = reader_.ReadPartial(header, sizeof(header), &got);
    if (!s.ok()) {
      *status = s;
      return false;
    }
    if (got == 0) return false;  // clean EOF between blocks
    if (got != sizeof(header)) {
      *status = Status::Corruption("truncated block header in " + path_);
      return false;
    }
    uint32_t raw = header[0];
    uint32_t stored = header[1];
    if (raw > kMaxBlockRawSize || stored > raw) {
      *status = Status::Corruption("implausible block header in " + path_);
      return false;
    }
    payload_.resize(stored);
    if (stored > 0) {
      s = reader_.Read(payload_.data(), stored);
      if (!s.ok()) {
        *status = s;
        return false;
      }
    }
    if (stored == raw) {
      block_ = std::move(payload_);
    } else {
      Result<std::string> inflated = DecompressString(payload_, raw);
      if (!inflated.ok()) {
        *status = inflated.status();
        return false;
      }
      block_ = std::move(*inflated);
    }
    pos_ = 0;
    if (block_.empty()) {
      *status = Status::Corruption("empty block in " + path_);
      return false;
    }
    return true;
  }

  SequentialFileReader reader_;
  std::string path_;
  std::string block_;    // current inflated block
  std::string payload_;  // raw on-disk payload scratch
  size_t pos_ = 0;
};

/// Streams a sorted in-memory buffer.
class VectorStream : public SortedStream {
 public:
  explicit VectorStream(std::vector<std::string> records)
      : records_(std::move(records)) {}

  bool Next(std::string* record, Status* status) override {
    (void)status;
    if (pos_ >= records_.size()) return false;
    *record = std::move(records_[pos_++]);
    return true;
  }

 private:
  std::vector<std::string> records_;
  size_t pos_ = 0;
};

/// K-way merge over run files using a binary heap of run heads.
class MergeStream : public SortedStream {
 public:
  MergeStream(Env* env, std::vector<std::string> run_paths)
      : env_(env), run_paths_(std::move(run_paths)) {}

  Status Init() {
    readers_.resize(run_paths_.size());
    heads_.resize(run_paths_.size());
    for (size_t i = 0; i < run_paths_.size(); ++i) {
      readers_[i] = std::make_unique<RunReader>();
      X3_RETURN_IF_ERROR(readers_[i]->Open(env_, run_paths_[i]));
      Status s;
      if (readers_[i]->Next(&heads_[i], &s)) {
        heap_.push_back(i);
      } else if (!s.ok()) {
        return s;
      }
    }
    std::make_heap(heap_.begin(), heap_.end(), HeadAfter{this});
    initialized_ = true;
    return Status::OK();
  }

  bool Next(std::string* record, Status* status) override {
    X3_DCHECK(initialized_);
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), HeadAfter{this});
    size_t idx = heap_.back();
    heap_.pop_back();
    *record = std::move(heads_[idx]);
    Status s;
    if (readers_[idx]->Next(&heads_[idx], &s)) {
      heap_.push_back(idx);
      std::push_heap(heap_.begin(), heap_.end(), HeadAfter{this});
    } else if (!s.ok()) {
      *status = s;
      return false;
    }
    return true;
  }

 private:
  /// Heap order: the bytewise-smallest head on top, equal heads in run
  /// order so the merge is deterministic.
  struct HeadAfter {
    const MergeStream* merge;
    bool operator()(size_t a, size_t b) const {
      int c = merge->heads_[a].compare(merge->heads_[b]);
      return c != 0 ? c > 0 : a > b;
    }
  };

  Env* env_;
  std::vector<std::string> run_paths_;
  std::vector<std::unique_ptr<RunReader>> readers_;
  std::vector<std::string> heads_;
  std::vector<size_t> heap_;
  bool initialized_ = false;
};

}  // namespace

ExternalSorter::ExternalSorter(ExecutionContext* ctx) : ctx_(ctx) {
  MemoryBudget* budget = ctx != nullptr ? ctx->budget() : nullptr;
  if (budget != nullptr && !budget->unlimited()) budget_ = budget;
}

ExternalSorter::~ExternalSorter() {
  if (budget_ != nullptr) budget_->Release(reserved_bytes_);
}

Status ExternalSorter::Add(std::string_view record) {
  X3_CHECK(!finished_) << "Add after Finish";
  ++stats_.records;
  stats_.bytes += record.size();
  if (budget_ != nullptr) {
    size_t charge = record.size() + kRecordOverhead;
    if (!budget_->WouldFit(charge) && !buffer_.empty()) {
      X3_RETURN_IF_ERROR(SpillBuffer());
    }
    // A single record larger than the whole budget still has to be
    // buffered; overshoot is recorded rather than failing the sort.
    budget_->ForceReserve(charge);
    reserved_bytes_ += charge;
  }
  buffer_.emplace_back(record);
  return Status::OK();
}

Status ExternalSorter::SpillBuffer() {
  // Only a bounded budget spills, and only a context supplies one.
  TempFileManager* temp_files = ctx_->temp_files();
  if (temp_files == nullptr) {
    return Status::ResourceExhausted(
        "sort exceeded memory budget and no temp file manager configured");
  }
  X3_RETURN_IF_ERROR(ctx_->CheckInterrupted());
  X3_TRACE_SPAN(ctx_->tracer(), "sort/spill");
  std::sort(buffer_.begin(), buffer_.end());
  std::string path = temp_files->NextPath("run");
  RunWriter writer;
  X3_RETURN_IF_ERROR(writer.Open(temp_files->env(), path));
  for (const std::string& rec : buffer_) {
    X3_RETURN_IF_ERROR(writer.Append(rec));
  }
  X3_RETURN_IF_ERROR(writer.Close());
  stats_.spill_bytes += writer.bytes();
  ++stats_.runs_spilled;
  RunsSpilledCounter().Increment();
  SpillBytesCounter().Increment(writer.bytes());
  stats_.in_memory = false;
  runs_.push_back(path);
  buffer_.clear();
  budget_->Release(std::exchange(reserved_bytes_, 0));
  return Status::OK();
}

Status ExternalSorter::CascadeMerges() {
  TempFileManager* temp_files = ctx_->temp_files();
  while (runs_.size() > kMergeFanIn) {
    X3_TRACE_SPAN(ctx_->tracer(), "sort/merge-pass");
    std::vector<std::string> group(runs_.begin(),
                                   runs_.begin() + kMergeFanIn);
    runs_.erase(runs_.begin(), runs_.begin() + kMergeFanIn);
    MergeStream merge(temp_files->env(), group);
    X3_RETURN_IF_ERROR(merge.Init());
    std::string out_path = temp_files->NextPath("merge");
    RunWriter writer;
    X3_RETURN_IF_ERROR(writer.Open(temp_files->env(), out_path));
    std::string rec;
    Status s;
    while (merge.Next(&rec, &s)) {
      X3_RETURN_IF_ERROR(ctx_->Poll());
      X3_RETURN_IF_ERROR(writer.Append(rec));
    }
    X3_RETURN_IF_ERROR(s);
    X3_RETURN_IF_ERROR(writer.Close());
    for (const std::string& p : group) temp_files->Remove(p);
    runs_.push_back(out_path);
    ++stats_.merge_passes;
    MergePassesCounter().Increment();
  }
  return Status::OK();
}

Result<std::unique_ptr<SortedStream>> ExternalSorter::Finish() {
  X3_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  if (runs_.empty()) {
    // Pure in-memory sort (quicksort).
    std::sort(buffer_.begin(), buffer_.end());
    if (budget_ != nullptr) budget_->Release(std::exchange(reserved_bytes_, 0));
    return std::unique_ptr<SortedStream>(
        std::make_unique<VectorStream>(std::move(buffer_)));
  }
  if (!buffer_.empty()) {
    X3_RETURN_IF_ERROR(SpillBuffer());
  }
  X3_RETURN_IF_ERROR(CascadeMerges());
  ++stats_.merge_passes;
  MergePassesCounter().Increment();
  auto merge =
      std::make_unique<MergeStream>(ctx_->temp_files()->env(), runs_);
  X3_RETURN_IF_ERROR(merge->Init());
  return std::unique_ptr<SortedStream>(std::move(merge));
}

}  // namespace x3
