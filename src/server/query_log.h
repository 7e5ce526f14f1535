#ifndef X3_SERVER_QUERY_LOG_H_
#define X3_SERVER_QUERY_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cube/algorithm.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace x3 {

class Env;  // util/env.h; used by pointer only

/// One stage's contribution to a query (copied from the execution
/// context's StatsSink at completion).
struct QueryStageMs {
  std::string label;
  double ms = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
};

/// The structured lifecycle record of one submitted query — everything
/// an operator needs to explain a latency outlier after the fact
/// without re-running it (DESIGN.md §13). Exactly one record is
/// committed per query the server accepted, on every exit path:
/// success, cancellation, deadline, admission denial, failure.
struct QueryLogRecord {
  /// The server-minted id; matches the `qid` arg on this query's trace
  /// spans and the `qid=N` prefix on its log lines.
  uint64_t qid = 0;
  /// Caller-supplied tenant label (ServerRequest::tenant; may be "").
  std::string tenant;
  /// NormalizedQueryKey of the compiled query ("" when compile failed).
  std::string shape_key;

  /// Submit-to-worker-pickup wait (FIFO queue time).
  double queue_seconds = 0;
  /// Worker pickup to answer (the latency histogram's observation).
  double latency_seconds = 0;

  // Cache outcome (ServerAnswer mirror; zero/false on error).
  uint64_t exact_hits = 0;
  uint64_t rollup_answers = 0;
  bool computed = false;
  bool cache_bypassed = false;  // request opted out (use_cache = false)

  // Plan variant: what was asked for, what actually ran on the miss
  // path, and whether the safety downgrade rewrote it.
  CubeAlgorithm algorithm_requested = CubeAlgorithm::kTDCust;
  CubeAlgorithm algorithm_used = CubeAlgorithm::kTDCust;
  bool downgraded = false;

  /// Admission-budget peak while this query completed (shared budget:
  /// the server-wide high-water mark, not a per-query attribution).
  uint64_t budget_peak_bytes = 0;
  /// External-sort spill bytes of this query, from its execution
  /// context's cost counts (its stage bytes break the same sum down).
  uint64_t spill_bytes = 0;

  /// Per-stage wall-clock breakdown from the execution context.
  std::vector<QueryStageMs> stages;

  StatusCode status = StatusCode::kOk;
  /// Status message for non-OK terminal status ("" on success).
  std::string error;

  /// Latency exceeded X3ServerOptions::slow_query_threshold_seconds.
  bool slow = false;
  /// Slow-lane payload, captured only when the query was slow AND
  /// missed: the full ExplainCubePlanWithActuals rendering when it
  /// computed a cube (the plan actuals are what explains a slow
  /// compute), a one-line summary (cuboid, facts scanned, cells built,
  /// ms) when a single-cuboid miss built views. A slow cache hit has its
  /// stages breakdown instead.
  std::string slow_explain;
};

/// Mutex-ranked (lock_rank::kQueryLog, a leaf among the server locks)
/// flight-recorder ring of per-query lifecycle records, newest-wins
/// like the span tracer: when the ring is full the oldest records are
/// overwritten and total() keeps counting. Thread-safe: workers commit
/// concurrently with snapshots/export.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit QueryLog(size_t capacity = kDefaultCapacity);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends one completed query's record (overwriting the oldest when
  /// the ring is full).
  void Commit(QueryLogRecord record) X3_EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }
  /// Records ever committed (>= size()).
  uint64_t total() const X3_EXCLUDES(mu_);
  /// Records currently held (<= capacity()).
  size_t size() const X3_EXCLUDES(mu_);
  /// Copy of the held records, oldest first.
  std::vector<QueryLogRecord> Snapshot() const X3_EXCLUDES(mu_);

  /// JSONL export: one self-contained JSON object per line, oldest
  /// first (the schema scripts/check_observability.py validates).
  std::string ToJsonLines() const X3_EXCLUDES(mu_);

  /// Writes ToJsonLines() to `path` through `env`.
  Status WriteJsonl(Env* env, const std::string& path) const
      X3_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{lock_rank::kQueryLog};
  const size_t capacity_;
  /// Grows to capacity_, then wraps (oldest at next_).
  std::vector<QueryLogRecord> ring_ X3_GUARDED_BY(mu_);
  size_t next_ X3_GUARDED_BY(mu_) = 0;
  uint64_t total_ X3_GUARDED_BY(mu_) = 0;
};

/// Renders one record as a single-line JSON object (exposed for tests;
/// ToJsonLines is this per record joined by newlines).
std::string QueryLogRecordToJson(const QueryLogRecord& record);

}  // namespace x3

#endif  // X3_SERVER_QUERY_LOG_H_
