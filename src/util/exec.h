#ifndef X3_UTIL_EXEC_H_
#define X3_UTIL_EXEC_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/memory_budget.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"
#include "util/trace.h"

namespace x3 {

class TempFileManager;  // storage/temp_file.h; held by pointer only

/// Cooperative cancellation flag shared between a query's issuer and
/// its executing thread. The issuer calls Cancel(); long-running loops
/// observe it through ExecutionContext::Poll() and unwind with
/// kCancelled. Thread-safe; Cancel() is idempotent.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    int64_t remaining = trip_after_.load(std::memory_order_relaxed);
    if (remaining >= 0 &&
        trip_after_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Arms the token to trip after `checks` further cancelled() calls —
  /// a deterministic way to cancel mid-computation (tests use it to
  /// prove every algorithm family unwinds cleanly from deep inside its
  /// hot loop, without racing a second thread). Checks are counted
  /// across every thread polling the token, so under parallel
  /// execution the trip still happens after `checks` polls total.
  void CancelAfterChecks(int64_t checks) {
    trip_after_.store(checks, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  /// -1 = disarmed; >= 0 = remaining checks before auto-cancel.
  mutable std::atomic<int64_t> trip_after_{-1};
};

/// The merged record of every occurrence of one stage label during
/// execution ("materialize", "plan", "compute", "cuboid/12", "pass/2",
/// ...). Same-label occurrences — the COUNTER family times "pass/0"
/// once per parallel batch, a retried stage runs twice — are folded
/// into one entry: `seconds` sums them, `max_seconds` keeps the largest
/// single occurrence, `count` says how many were folded in. `rows` and
/// `bytes` accumulate the optional per-stage output-row and I/O detail
/// that EXPLAIN ANALYZE renders.
struct StageTiming {
  std::string label;
  double seconds = 0;      // summed across occurrences
  double max_seconds = 0;  // largest single occurrence
  uint64_t count = 0;      // occurrences merged into this entry
  uint64_t rows = 0;       // rows/cells produced (0 when not reported)
  uint64_t bytes = 0;      // bytes of I/O performed (0 when not reported)
};

/// Collects per-stage wall-clock timings during a query's execution.
/// Thread-safe for concurrent Record calls (the parallel cube
/// executor's workers share one sink).
///
/// Merge semantics: entries are keyed by exact label. Record and Append
/// fold a same-label occurrence into the existing entry (sum seconds /
/// rows / bytes, max of max_seconds, count += occurrences) instead of
/// appending a duplicate row — so a label timed on N threads reports
/// its total once, not N look-alike rows, and `timings().size()` is the
/// number of distinct labels. Entry order is first-recording order;
/// under parallel execution that order may vary run to run, but the
/// aggregate queries (TotalSeconds/CountStages/Find) are
/// order-independent.
class StatsSink {
 public:
  void Record(std::string_view label, double seconds) {
    Record(label, seconds, 0, 0);
  }

  /// Records one stage occurrence with optional row/byte detail.
  void Record(std::string_view label, double seconds, uint64_t rows,
              uint64_t bytes) X3_EXCLUDES(mu_);

  /// Direct view of the entries. Only safe once concurrent recording
  /// has quiesced (after the execution's join point) — callers that
  /// need a snapshot mid-flight should use the aggregate queries.
  /// Deliberately outside the static analysis: it returns a reference
  /// to guarded state under a quiesce contract the analysis cannot see.
  const std::vector<StageTiming>& timings() const
      X3_NO_THREAD_SAFETY_ANALYSIS {
    return timings_;
  }

  /// Merges every entry of `other` into this sink (per-worker sinks at
  /// a join point) under the label-merge semantics above:
  /// TotalSeconds/CountStages over the merged sink equal the sums over
  /// the parts.
  void Append(const StatsSink& other) X3_EXCLUDES(mu_);

  /// Sum of all stages whose label equals `label` or starts with
  /// "<label>/" (so TotalSeconds("cuboid") sums every per-cuboid entry).
  double TotalSeconds(std::string_view label) const X3_EXCLUDES(mu_);

  /// Total occurrence count over stages with label `label` or prefix
  /// "<label>/" (a label recorded on N threads counts N).
  size_t CountStages(std::string_view label) const X3_EXCLUDES(mu_);

  /// The merged entry for exactly `label`, or nullopt if never
  /// recorded.
  std::optional<StageTiming> Find(std::string_view label) const
      X3_EXCLUDES(mu_);

  void Clear() X3_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    timings_.clear();
    index_.clear();
  }

  /// One "label: 1.234 ms" line per stage (with "xN" and max detail for
  /// merged occurrences), for logs and EXPLAIN ANALYZE style output.
  std::string ToString() const X3_EXCLUDES(mu_);

 private:
  StageTiming* EntryLocked(std::string_view label) X3_REQUIRES(mu_);

  mutable Mutex mu_{lock_rank::kStatsSink};
  std::vector<StageTiming> timings_ X3_GUARDED_BY(mu_);
  /// label -> index into timings_ (stable: entries are never removed
  /// except by Clear).
  std::unordered_map<std::string, size_t> index_ X3_GUARDED_BY(mu_);
};

/// RAII helper: records the elapsed time of a scope into a sink under a
/// fixed label, and opens a trace span of the same label on `tracer`
/// (when tracing is compiled in and the tracer is enabled). A null sink
/// disables recording; a null tracer disables the span. AddRows /
/// AddBytes accumulate the optional per-stage detail that EXPLAIN
/// ANALYZE renders; they are recorded with the timing at scope exit.
class ScopedStageTimer {
 public:
  ScopedStageTimer(StatsSink* sink, std::string label,
                   Tracer* tracer = nullptr)
      : sink_(sink), label_(std::move(label)), span_(tracer, label_) {}
  ~ScopedStageTimer() {
    if (sink_ != nullptr) {
      sink_->Record(label_, timer_.ElapsedSeconds(), rows_, bytes_);
    }
  }

  void AddRows(uint64_t rows) { rows_ += rows; }
  void AddBytes(uint64_t bytes) { bytes_ += bytes; }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  StatsSink* sink_;
  std::string label_;
  TraceSpan span_;
  uint64_t rows_ = 0;
  uint64_t bytes_ = 0;
  Timer timer_;
};

/// One relaxed atomic sum. The workers of an execution add to it
/// concurrently; a sum needs no ordering, so relaxed adds give the same
/// total at every parallelism.
class CostCounter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// The machine-independent cost counts of one execution: the one
/// account of what it did. EXPLAIN ANALYZE's stage rows and bytes break
/// the same events down per step; the x3_* metrics sum them over the
/// process. Callers add once per scan, sort, pass or view, never once
/// per fact, record or partition: hot loops count into a local first.
struct ExecutionCosts {
  CostCounter base_scans;      // scans of the fact table (a view build is one)
  CostCounter passes;          // COUNTER passes over the input
  CostCounter sorts;           // external sorts run (TD family)
  CostCounter records_sorted;  // records fed into those sorts
  CostCounter spilled_runs;    // sorted runs spilled to temp files
  CostCounter spill_bytes;     // bytes written to those runs
  CostCounter partitions;      // BUC partitions recursed into
  CostCounter partition_rows;  // rows placed into BUC partitions
  CostCounter rollups;         // cuboids rolled up or copied, not from base
  CostCounter view_cells;      // cells of the views CubeViewStore built
};

/// The execution environment threaded through a whole query: memory
/// budget, temp-file manager, cooperative cancellation, a monotonic
/// deadline, the per-stage stats sink and the cost counts. One context
/// per execution, shareable by that execution's worker threads: the
/// budget and the cost counts are atomic, the stats sink synchronizes
/// Record, the cancellation flag and the deadline are
/// immutable-or-atomic, and the deadline poll stride counter is
/// per-thread state — Poll() and CheckInterrupted() may be called
/// concurrently from any worker.
///
/// Cancellation contract: every long-running loop (fact scans, BUC
/// recursion, sort runs, merge passes) calls Poll() and propagates a
/// non-OK status outward without side effects beyond already-merged
/// partial state; all resources are RAII-owned, so an early unwind
/// leaks nothing. Under parallel execution the scheduler additionally
/// drains in-flight tasks before surfacing the interruption, so every
/// worker's budget charges are released by its own unwind. Poll()
/// checks the cancellation flag on every call and the clock only every
/// kDeadlineStride calls per thread (steady_clock reads are too
/// expensive for per-row polling).
class ExecutionContext {
 public:
  using Clock = MonotonicClock;

  struct Options {
    /// Bounds working memory. nullptr = unlimited.
    MemoryBudget* budget = nullptr;
    /// Where sort spills and intermediates live.
    TempFileManager* temp_files = nullptr;
    /// Cooperative cancellation; nullptr = not cancellable.
    const CancellationToken* cancel = nullptr;
    /// Absolute monotonic deadline; nullopt = no deadline.
    std::optional<Clock::time_point> deadline;
    /// Span tracer for this execution; nullptr = the process-global
    /// tracer (the usual case — per-execution tracers are for tests).
    Tracer* tracer = nullptr;
    /// Server-minted query id this execution runs on behalf of; 0 when
    /// the engine is used directly. The parallel executor re-establishes
    /// it (ScopedQueryId) on pool workers so their spans and log lines
    /// stay attributed to the query.
    uint64_t query_id = 0;
  };

  ExecutionContext() = default;
  explicit ExecutionContext(Options options) : options_(options) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  const Options& options() const { return options_; }
  MemoryBudget* budget() const { return options_.budget; }
  TempFileManager* temp_files() const { return options_.temp_files; }
  const CancellationToken* cancellation() const { return options_.cancel; }
  const std::optional<Clock::time_point>& deadline() const {
    return options_.deadline;
  }
  uint64_t query_id() const { return options_.query_id; }

  StatsSink* stats() { return &stats_; }
  const StatsSink& stats() const { return stats_; }

  ExecutionCosts& costs() { return costs_; }
  const ExecutionCosts& costs() const { return costs_; }

  /// The tracer spans of this execution record into (never null).
  Tracer* tracer() const {
    return options_.tracer != nullptr ? options_.tracer : &Tracer::Global();
  }

  /// Cheap per-iteration check: cancellation flag every call, deadline
  /// every kDeadlineStride calls. OK, kCancelled or kDeadlineExceeded.
  Status Poll() {
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return Status::Cancelled("execution cancelled");
    }
    if (options_.deadline.has_value()) {
      // Per-thread stride state: each worker of a parallel execution
      // strides its own clock reads, with no shared counter to race on.
      // The counter deliberately spans contexts — it only rations
      // steady_clock reads, so at worst a fresh context's first check
      // lands up to one stride late, same as mid-stride polling.
      static thread_local uint64_t deadline_poll_count = 0;
      if ((++deadline_poll_count % kDeadlineStride) == 0) {
        return CheckDeadline();
      }
    }
    return Status::OK();
  }

  /// Unstrided check (stage boundaries): flag and clock both.
  Status CheckInterrupted() {
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return Status::Cancelled("execution cancelled");
    }
    if (options_.deadline.has_value()) return CheckDeadline();
    return Status::OK();
  }

  /// Remaining time, clamped at zero; nullopt when no deadline is set.
  std::optional<double> RemainingSeconds() const;

  /// Poll() reads the clock once per this many calls on each thread.
  /// Public so tests can bound "how many polls until an expired
  /// deadline must surface" without hard-coding the number.
  static constexpr uint64_t kDeadlineStride = 512;

 private:
  Status CheckDeadline() const {
    if (MonotonicNow() > *options_.deadline) {
      return Status::DeadlineExceeded("execution deadline exceeded");
    }
    return Status::OK();
  }

  Options options_;
  StatsSink stats_;
  ExecutionCosts costs_;
};

/// A deadline `seconds` from now on the context clock.
inline ExecutionContext::Clock::time_point DeadlineAfterSeconds(
    double seconds) {
  return MonotonicNow() +
         std::chrono::duration_cast<ExecutionContext::Clock::duration>(
             std::chrono::duration<double>(seconds));
}

}  // namespace x3

#endif  // X3_UTIL_EXEC_H_
