#ifndef X3_SERVER_X3_SERVER_H_
#define X3_SERVER_X3_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cube/algorithm.h"
#include "cube/delta.h"
#include "cube/view_store.h"
#include "schema/summarizability.h"
#include "server/cuboid_cache.h"
#include "server/query_log.h"
#include "storage/temp_file.h"
#include "util/exec.h"
#include "util/memory_budget.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "x3/engine.h"

namespace x3 {

/// Configuration of an X3Server.
struct X3ServerOptions {
  /// Worker threads executing queries. 0 = hardware concurrency.
  size_t num_threads = 4;
  /// Admission budget shared by every in-flight query: an admitted
  /// query reserves its shape's fact-table footprint for the duration
  /// of its execution and is refused with kResourceExhausted when the
  /// reservation does not fit (the budget must therefore fit at least
  /// one shape). 0 = unlimited. Compute-time working memory (counter
  /// tables, sort buffers) is charged to the same budget, so budgeted
  /// algorithms spill instead of overshooting.
  size_t admission_budget_bytes = 0;
  /// Capacity of the materialized-cuboid LRU cache. 0 = unlimited.
  size_t cache_capacity_bytes = 64ull << 20;
  /// Default per-query deadline in seconds; 0 = none. A request's
  /// explicit deadline overrides this.
  double default_deadline_seconds = 0;
  /// Environment spill files go through; nullptr = Env::Default().
  Env* env = nullptr;
  /// Base directory for spill files; empty = $TMPDIR.
  std::string temp_dir;

  // --- Query-lifecycle observability (DESIGN.md §13) ---

  /// Queries whose end-to-end latency meets or exceeds this are marked
  /// `slow` in the query log, and (when they computed a cube) get the
  /// full ExplainCubePlanWithActuals rendering attached to their
  /// record. 0 = slow lane disabled.
  double slow_query_threshold_seconds = 0;
  /// Ring capacity of the per-query lifecycle log.
  size_t query_log_capacity = QueryLog::kDefaultCapacity;
  /// Stuck-query watchdog tick interval; 0 = watchdog disabled.
  double watchdog_interval_seconds = 0;
  /// A query with a deadline is flagged as stuck once its in-flight
  /// age exceeds this multiple of its deadline (it should have unwound
  /// with kDeadlineExceeded long before).
  double stuck_deadline_multiple = 3.0;
  /// A query WITHOUT a deadline is flagged once its age exceeds this;
  /// 0 = deadline-less queries are never flagged.
  double stuck_after_seconds = 0;
};

/// One cube request against a serving session.
struct ServerRequest {
  /// X^3 query text, compiled via X3Engine::Compile — or a
  /// pre-compiled query in `query` (which wins when set).
  std::string query_text;
  std::optional<CubeQuery> query;
  /// The cuboid (relaxation point) wanted; nullopt = the full cube
  /// (every cuboid of the lattice). Validated against the lattice.
  std::optional<CuboidId> target;
  /// The algorithm a miss computes the lattice with: full-cube misses
  /// and `use_cache = false` requests, after the downgrade policy (an
  /// OPT variant whose plan has unproven-safe steps runs as its CUST
  /// counterpart). A single-cuboid miss through the cache builds views
  /// instead and does not use it.
  CubeAlgorithm algorithm = CubeAlgorithm::kTDCust;
  /// Iceberg threshold applied to the answer (max with the query's own
  /// HAVING threshold). Applied after caching: the cache always holds
  /// unfiltered cells, so differently-thresholded requests share views.
  int64_t min_count = 0;
  /// Per-axis summarizability annotations; must outlive the server.
  /// nullptr = assume nothing (id-less roll-ups are never used and the
  /// OPT algorithm variants are always downgraded). The FIRST request
  /// that builds a shape fixes the shape's properties; later requests
  /// for the same normalized query inherit them.
  const LatticeProperties* properties = nullptr;
  /// Per-request deadline in seconds; overrides the server default.
  std::optional<double> deadline_seconds;
  /// Compute parallelism, as CubeComputeOptions::parallelism: 1 = the
  /// worker's own thread, 0 = hardware concurrency.
  size_t parallelism = 1;
  /// When false the query bypasses the cuboid cache entirely (no view
  /// lookups, no cache fill) — the cold-path escape hatch.
  bool use_cache = true;
  /// Caller-supplied tenant label, carried verbatim into the query log
  /// and statusz (attribution only; no isolation semantics).
  std::string tenant;
  /// Test hook: holds the query inside the worker for this long
  /// (cancellation- and deadline-honoring busy wait, reported as stage
  /// "debug-hold") before the normal execution path. Drives the
  /// watchdog and slow-lane tests; 0 in production.
  double debug_hold_seconds = 0;
};

/// Outcome of one committed write batch (X3Server::CommitDocuments).
struct ServerWriteResult {
  /// WAL LSN of the batch's commit record (the durability horizon the
  /// batch is replayed up to after a crash).
  uint64_t commit_lsn = 0;
  size_t documents = 0;
  /// Query shapes whose fact table grew and whose snapshot was swapped.
  size_t shapes_updated = 0;
  /// Aggregated view-maintenance counters across the updated shapes.
  DeltaStats delta;
};

/// A completed query's answer.
struct ServerAnswer {
  AggregateFunction aggregate = AggregateFunction::kCount;
  /// (cuboid id, cells) for the requested cuboid — or for every cuboid
  /// of the lattice, in topological (finest-first) order, for a
  /// full-cube request.
  std::vector<std::pair<CuboidId, CellMap>> cuboids;
  /// How the cuboids were answered: exact view hits, safe roll-ups
  /// from a finer view, or (`computed`) a miss — a single-cuboid miss
  /// built views from base, any other miss ran ComputeCube.
  uint64_t exact_hits = 0;
  uint64_t rollup_answers = 0;
  bool computed = false;
  /// What actually ran on the miss path: kReference (the per-cuboid
  /// evaluation from base) for a single-cuboid miss that built views,
  /// else the computed algorithm after any safety downgrade.
  /// Meaningless when `computed` is false.
  CubeAlgorithm algorithm_used = CubeAlgorithm::kTDCust;
  uint64_t num_cuboids_in_lattice = 0;
  double latency_seconds = 0;
};

/// One in-flight query as reported by X3Server::Statusz().
struct StatuszQuery {
  uint64_t qid = 0;
  std::string tenant;
  /// Static stage label ("queued", "compile", "build-shape",
  /// "cache-lookup", "compute", ...) at snapshot time.
  const char* stage = "";
  /// Seconds since the worker picked the query up.
  double age_seconds = 0;
  /// The watchdog has flagged this query as stuck.
  bool stuck = false;
};

/// One resident query shape as reported by X3Server::Statusz().
struct StatuszShape {
  std::string key;
  /// Commit LSN the shape's current snapshot reflects; compare with
  /// StatuszReport::durable_lsn / last_commit_lsn for staleness.
  uint64_t built_lsn = 0;
  size_t fact_rows = 0;
};

/// Point-in-time introspection snapshot of a serving session — the
/// answer to "what is this server doing and why is it slow". Every
/// count mirrors the metric registry (same underlying counters), so a
/// statusz snapshot and a metrics scrape taken together agree.
struct StatuszReport {
  double uptime_seconds = 0;
  size_t num_threads = 0;
  /// Queries accepted by Submit so far (== the last minted qid).
  uint64_t queries_submitted = 0;
  /// Submitted but not yet picked up by a worker.
  size_t queue_depth = 0;
  std::vector<StatuszQuery> inflight;
  std::vector<StatuszShape> shapes;
  /// Database write-lane horizons: in-memory vs durably checkpointed.
  uint64_t last_commit_lsn = 0;
  uint64_t durable_lsn = 0;
  // Cuboid cache.
  size_t cache_bytes = 0;
  size_t cache_views = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_hits = 0;
  uint64_t rollup_answers = 0;
  uint64_t cache_misses = 0;
  /// Served-entirely-from-cache queries / completed queries.
  double cache_hit_ratio = 0;
  // Admission budget.
  size_t budget_capacity_bytes = 0;
  size_t budget_used_bytes = 0;
  size_t budget_peak_bytes = 0;
  uint64_t admission_denied = 0;
  // Watchdog.
  uint64_t stuck_queries = 0;
  // Latency percentiles (Histogram::Quantile over the server latency
  // histogram), milliseconds.
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;

  /// Human-readable multi-line rendering.
  std::string ToText() const;
  /// Single JSON object (the schema check_observability.py validates).
  std::string ToJson() const;
};

/// A long-lived serving session over one shared Database: concurrent
/// Submit() calls are fair-scheduled (FIFO) onto a worker pool,
/// admission-controlled through a shared MemoryBudget, bounded by
/// per-query deadlines and cancellable mid-flight, and answered from
/// an LRU cache of materialized cuboids whenever CubeViewStore can
/// prove an exact hit or a safe roll-up. On a miss for one cuboid the
/// server builds the views the cache keeps (the finest cuboid's and
/// the target's) and answers from the target's view; a full-cube miss
/// runs ComputeCube with the requested algorithm after the downgrade
/// policy and then caches the finest view; a request with
/// `use_cache = false` always computes and caches nothing.
///
/// Query shapes — the compiled pattern, its lattice, the materialized
/// fact table, the property map and the per-shape CubeViewStore — are
/// built once per normalized query and kept for the server's lifetime;
/// only the materialized views inside them are subject to eviction.
/// Shape fact tables are deliberately NOT charged to the admission
/// budget (they are session state, not per-query working memory), so
/// `budget()->used() == 0` holds whenever no query is in flight.
///
/// Thread-safe. Destroying the server drains every submitted query
/// first (ThreadPool drain-on-destroy), so tickets handed out earlier
/// always complete.
class X3Server {
 public:
  /// A submitted query's handle. Obtained from Submit(); shared
  /// ownership, so it stays valid however long the caller keeps it.
  class Ticket {
   public:
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    /// Blocks until the query finished and moves its result out. May
    /// be called once; later calls return kInternal.
    Result<ServerAnswer> Wait() X3_EXCLUDES(mu_);

    /// Requests cooperative cancellation (idempotent; the query
    /// unwinds with kCancelled at its next poll).
    void Cancel() { token_.Cancel(); }

    /// Arms deterministic mid-flight cancellation: the token trips
    /// after `checks` further polls (test hook; see
    /// CancellationToken::CancelAfterChecks).
    void CancelAfterChecks(int64_t checks) {
      token_.CancelAfterChecks(checks);
    }

    bool done() const X3_EXCLUDES(mu_) {
      MutexLock lock(&mu_);
      return done_;
    }

    /// The server-minted query id (monotonically increasing from 1 in
    /// submission order); the key joining this query's trace spans,
    /// log lines and query-log record.
    uint64_t query_id() const { return qid_; }

   private:
    friend class X3Server;
    Ticket() = default;

    void Complete(Result<ServerAnswer> result) X3_EXCLUDES(mu_);

    CancellationToken token_;
    /// Set once by Submit before the ticket escapes; immutable after.
    uint64_t qid_ = 0;
    /// Started at Submit; the gap to worker pickup is the query's
    /// FIFO queue wait.
    Timer queued_;
    mutable Mutex mu_{lock_rank::kServerTicket};
    CondVar done_cv_;
    bool done_ X3_GUARDED_BY(mu_) = false;
    std::optional<Result<ServerAnswer>> result_ X3_GUARDED_BY(mu_);
  };

  /// `db` must outlive the server and already contain the data.
  explicit X3Server(Database* db, X3ServerOptions options = {});

  /// Drains all in-flight and queued queries, then joins the workers.
  ~X3Server();

  X3Server(const X3Server&) = delete;
  X3Server& operator=(const X3Server&) = delete;

  /// Enqueues the query. Never blocks on query execution; the returned
  /// ticket resolves once a worker ran it. Fairness is FIFO: queries
  /// start in submission order.
  std::shared_ptr<Ticket> Submit(ServerRequest request);

  /// Submit + Wait (the blocking convenience for single-tenant use).
  Result<ServerAnswer> Execute(ServerRequest request);

  /// The serialized write lane: loads `documents` (XML strings) into
  /// the database as ONE transactional batch (WAL-first, all-or-
  /// nothing), then folds the committed facts into every resident
  /// query shape — delta-patching materialized views where the plan
  /// proves it safe, rebuilding them (with fact ids) where it does not
  /// — and atomically swaps each shape's snapshot. Concurrent readers
  /// never observe a partial batch: a query sees either the complete
  /// pre-batch snapshot or the complete post-batch one. Writers are
  /// serialized against each other; a failed load rolls the batch back
  /// and leaves every shape untouched.
  Result<ServerWriteResult> CommitDocuments(
      const std::vector<std::string>& documents) X3_EXCLUDES(write_mu_);

  /// Durably checkpoints the database (raises the replay horizon and
  /// truncates the WAL), serialized with writers.
  Status Checkpoint() X3_EXCLUDES(write_mu_);

  /// The shared admission budget (used() drops back to 0 once every
  /// in-flight query drained).
  MemoryBudget* budget() { return &budget_; }

  size_t cache_bytes() const { return cache_.bytes(); }
  size_t cache_views() const { return cache_.num_views(); }
  uint64_t cache_evictions() const { return cache_.evictions(); }
  size_t num_shapes() const X3_EXCLUDES(mu_);

  /// The per-query lifecycle log (one record per completed query).
  const QueryLog& query_log() const { return query_log_; }

  /// Point-in-time introspection snapshot: uptime, in-flight queries
  /// with qid/age/current stage, pool queue depth, cache contents and
  /// hit ratio, shape LSNs vs the WAL durable horizon, budget state.
  /// Safe to call concurrently with queries and writes (brief
  /// registry/shape lock acquisitions; never held across each other).
  StatuszReport Statusz() const X3_EXCLUDES(mu_);

  /// Evicts every cached view (forced cold start; test hook).
  void FlushCacheForTest() { cache_.Clear(); }

 private:
  /// One immutable version of a shape's materialized state: the
  /// compiled query, lattice and fact table (X3Engine::Prepare's
  /// output) plus the view store the cuboid cache manages views in.
  /// The write path publishes a NEW snapshot per committed batch
  /// (copy-on-write); a running query pins the snapshot it started on,
  /// so it never sees a half-applied batch.
  struct ShapeSnapshot {
    std::unique_ptr<PreparedQuery> prepared;
    std::unique_ptr<CubeViewStore> views;
    /// Database commit LSN this snapshot's fact table reflects. The
    /// write path skips shapes whose snapshot already covers the
    /// batch (a shape built concurrently with the commit).
    uint64_t built_lsn = 0;
  };

  /// Everything the server keeps per normalized query: the current
  /// snapshot, the shape's property map, and the build latch. Built
  /// lazily by the first query of the shape; `mu` is the build latch
  /// and guards the snapshot pointer swap. `properties` is immutable
  /// once `ready` is published under `mu`.
  struct ShapeState {
    Mutex mu{lock_rank::kServerShape};
    CondVar ready_cv;
    bool ready X3_GUARDED_BY(mu) = false;
    Status build_status X3_GUARDED_BY(mu);
    LatticeProperties properties;
    bool disjoint_everywhere = false;
    std::shared_ptr<const ShapeSnapshot> snapshot X3_GUARDED_BY(mu);
  };

  /// Pins the shape's current snapshot (brief shape->mu acquisition).
  static std::shared_ptr<const ShapeSnapshot> PinSnapshot(ShapeState* shape);

  /// One in-flight query's live bookkeeping: registered by RunTask at
  /// worker pickup, deregistered on every exit path. `stage` is an
  /// atomic pointer to a static string literal, so RunQuery updates it
  /// lock-free and Statusz/watchdog read it race-free; the registry
  /// map itself is guarded by inflight_mu_ (rank kServerInflight),
  /// which is never held across any other lock acquisition.
  struct InflightEntry {
    uint64_t qid = 0;
    std::string tenant;
    Timer started;
    double deadline_seconds = 0;  // 0 = none
    std::atomic<const char*> stage{"queued"};
    std::atomic<bool> stuck{false};
  };

  /// The worker-side body of one submitted query: metrics, tracing,
  /// inflight registration, query-log commit and ticket completion
  /// around RunQuery.
  void RunTask(const std::shared_ptr<Ticket>& ticket,
               const ServerRequest& request);

  Result<ServerAnswer> RunQuery(const ServerRequest& request,
                                Ticket* ticket, InflightEntry* inflight,
                                QueryLogRecord* record);

  /// Registers/deregisters one in-flight query with the registry.
  void RegisterInflight(const std::shared_ptr<InflightEntry>& entry)
      X3_EXCLUDES(inflight_mu_);
  void DeregisterInflight(uint64_t qid) X3_EXCLUDES(inflight_mu_);

  /// The watchdog thread body: every watchdog_interval_seconds, flags
  /// queries in flight past their stuck threshold (once per query),
  /// bumps x3_server_stuck_queries_total and logs a one-shot statusz
  /// dump per flagging pass. Exits promptly on shutdown notify.
  void WatchdogLoop() X3_EXCLUDES(watchdog_mu_);
  /// One watchdog scan; returns how many queries it newly flagged.
  size_t WatchdogScanOnce();

  /// Returns the ready shape for `key`, building it (on this thread,
  /// deduplicated across concurrent requesters) if needed. A failed
  /// build is reported to every waiter and the shape is dropped so a
  /// later query can retry.
  Result<std::shared_ptr<ShapeState>> GetOrBuildShape(
      const std::string& key, const CubeQuery& query,
      const LatticeProperties* properties, ExecutionContext* ctx)
      X3_EXCLUDES(mu_);

  /// A miss's cache fill, timed as stage "cache-fill": builds the
  /// finest cuboid's view unless it is already held or is `target`,
  /// then `target`'s view (when set), publishes them together into the
  /// snapshot's view store and accounts them with the LRU cache in that
  /// order — only while `snapshot` is still the shape's current one. A
  /// reader racing a snapshot swap keeps its (now-stale) views for its
  /// own query but never registers them with the cache, so the cache
  /// never holds keys into a store whose snapshot has been retired.
  /// `answer` (may be null) receives `target`'s cells read from the
  /// view just built; the builds count into ctx->costs(). Returns
  /// kCancelled / kDeadlineExceeded when `ctx` trips during the build,
  /// with nothing published or cached.
  Status EnsureMaterialized(
      ShapeState* shape, const std::shared_ptr<const ShapeSnapshot>& snapshot,
      std::optional<CuboidId> target, ExecutionContext* ctx,
      CellMap* answer);

  /// Delta-maintains one shape after a batch committed at `commit_lsn`
  /// grew the database past `first_new_node`: clones the fact table,
  /// appends the new facts, plans and applies view deltas, swaps the
  /// snapshot and re-accounts the cache. No-op (false) when no new
  /// fact matched the shape or the snapshot already covers the batch.
  Result<bool> MaintainShape(ShapeState* shape, NodeId first_new_node,
                             uint64_t commit_lsn, DeltaStats* stats);

  Database* db_;
  const X3ServerOptions options_;
  X3Engine engine_;
  MemoryBudget budget_;
  TempFileManager temp_files_;
  CuboidCache cache_;

  /// Serializes writers (rank kServerWrite: held across the whole
  /// commit + maintenance pass, below every other server lock).
  Mutex write_mu_{lock_rank::kServerWrite};
  /// Excludes shape builds (which read the database through the
  /// pattern matcher) from the write lane's database mutation. Held by
  /// CommitDocuments during BeginBatch..CommitBatch and by
  /// GetOrBuildShape around X3Engine::Prepare.
  Mutex db_mu_{lock_rank::kDatabaseIngest};

  mutable Mutex mu_{lock_rank::kServerSession};
  std::unordered_map<std::string, std::shared_ptr<ShapeState>> shapes_
      X3_GUARDED_BY(mu_);

  /// Query-id mint (Submit) — the next ticket's qid. Starts at 1; 0
  /// means "no query" everywhere downstream.
  std::atomic<uint64_t> next_qid_{1};
  /// Server-start stopwatch (statusz uptime).
  Timer started_;
  QueryLog query_log_;

  mutable Mutex inflight_mu_{lock_rank::kServerInflight};
  std::unordered_map<uint64_t, std::shared_ptr<InflightEntry>> inflight_
      X3_GUARDED_BY(inflight_mu_);

  /// Watchdog wakeup/shutdown latch (rank kServerWatchdog, below every
  /// other server lock: the watchdog never holds it while scanning).
  Mutex watchdog_mu_{lock_rank::kServerWatchdog};
  CondVar watchdog_cv_;
  bool watchdog_stop_ X3_GUARDED_BY(watchdog_mu_) = false;
  /// The one sanctioned raw thread outside ThreadPool: the watchdog
  /// must keep ticking while every pool worker is wedged — running it
  /// on the pool would let the condition it detects starve it.
  std::thread watchdog_;  // x3-lint: allow(raw-thread) -- watchdog must outlive a wedged pool

  /// Declared last: destroyed first, draining every queued task while
  /// the shapes, cache and budget above are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

/// The cache key's normalization: fact path, per-axis (path,
/// relaxations, transform), measure path and aggregate — everything
/// that determines the lattice and fact table, and nothing that does
/// not (axis variable names and iceberg thresholds are excluded, so
/// renamed variables and different HAVING clauses share one shape).
std::string NormalizedQueryKey(const CubeQuery& query);

}  // namespace x3

#endif  // X3_SERVER_X3_SERVER_H_
