#include "server/x3_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cube/plan.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/query_id.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace x3 {

namespace {

/// Releases an admission reservation on every exit path of RunQuery.
class ScopedRelease {
 public:
  ScopedRelease(MemoryBudget* budget, size_t bytes)
      : budget_(budget), bytes_(bytes) {}
  ~ScopedRelease() { budget_->Release(bytes_); }

  ScopedRelease(const ScopedRelease&) = delete;
  ScopedRelease& operator=(const ScopedRelease&) = delete;

 private:
  MemoryBudget* budget_;
  size_t bytes_;
};

/// The always-correct variant of an algorithm whose global assumption
/// the property map cannot prove. The server must never serve a wrong
/// answer (cached views would disagree with computed ones), so OPT
/// variants are downgraded to their CUST counterparts when their plan
/// contains unsafe steps.
CubeAlgorithm SafeCounterpart(CubeAlgorithm algorithm) {
  switch (algorithm) {
    case CubeAlgorithm::kBUCOpt:
      return CubeAlgorithm::kBUCCust;
    case CubeAlgorithm::kTDOpt:
    case CubeAlgorithm::kTDOptAll:
      return CubeAlgorithm::kTDCust;
    default:
      return algorithm;
  }
}

Counter* AdmissionDeniedCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_server_admission_denied_total",
      "Queries refused because the admission budget was exhausted");
  return counter;
}

Counter* PlanDowngradeCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_server_plan_downgrades_total",
      "Queries whose OPT algorithm was downgraded to its CUST "
      "counterpart because the plan had unproven-safe steps");
  return counter;
}

Gauge* ShapesGauge() {
  static Gauge* gauge = MetricRegistry::Global().GetGauge(
      "x3_server_shapes", "Query shapes resident in the server");
  return gauge;
}

Counter* WalCommitFailuresCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_wal_commit_failures_total",
      "Write batches that failed to commit (rolled back)");
  return counter;
}

Counter* WalDocumentsCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_wal_documents_total",
      "Documents ingested through committed server write batches");
  return counter;
}

Gauge* WalLastCommitLsnGauge() {
  static Gauge* gauge = MetricRegistry::Global().GetGauge(
      "x3_wal_last_commit_lsn",
      "LSN of the most recent batch committed through the server");
  return gauge;
}

Counter* ShapesDroppedCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_delta_shapes_dropped_total",
      "Shapes dropped after a failed delta maintenance pass (rebuilt "
      "lazily by the next query)");
  return counter;
}

Counter* StuckQueriesCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_server_stuck_queries_total",
      "Queries the watchdog flagged as in flight past their stuck "
      "threshold");
  return counter;
}

Counter* CacheHitsCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_server_cache_hits_total",
      "Cuboids answered exactly from a cached materialized view");
  return counter;
}

Counter* RollupAnswersCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_server_rollup_answers_total",
      "Cuboids answered by safe roll-up from a cached finer view");
  return counter;
}

Counter* CacheMissesCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_server_cache_misses_total",
      "Queries no cached view could answer (views built or cube "
      "computed)");
  return counter;
}

Counter* CacheServedCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_server_cache_served_total",
      "Queries answered entirely from cached views");
  return counter;
}

Histogram* QueryLatencyHistogram() {
  static Histogram* histogram = MetricRegistry::Global().GetHistogram(
      "x3_server_query_latency_seconds",
      "End-to-end per-query latency in seconds (worker pickup to answer)");
  return histogram;
}

Counter* SlowQueriesCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter(
      "x3_server_slow_queries_total",
      "Queries whose end-to-end latency met the slow-query threshold");
  return counter;
}

}  // namespace

std::string NormalizedQueryKey(const CubeQuery& query) {
  std::string key = "fact=" + query.fact_path;
  for (const AxisSpec& axis : query.axes) {
    key += "|axis=" + axis.path + ";relax=" + axis.relaxations.ToString();
    switch (axis.transform.kind) {
      case ValueTransform::Kind::kIdentity:
        break;
      case ValueTransform::Kind::kPrefix:
        key += ";prefix=" + std::to_string(axis.transform.prefix_length);
        break;
      case ValueTransform::Kind::kLowercase:
        key += ";lowercase";
        break;
    }
  }
  key += "|measure=" + query.measure_path;
  key += "|agg=";
  key += AggregateFunctionToString(query.aggregate);
  return key;
}

Result<ServerAnswer> X3Server::Ticket::Wait() {
  MutexLock lock(&mu_);
  while (!done_) done_cv_.Wait(&mu_);
  if (!result_.has_value()) {
    return Status::Internal("ticket result already consumed by Wait()");
  }
  Result<ServerAnswer> result = std::move(*result_);
  result_.reset();
  return result;
}

void X3Server::Ticket::Complete(Result<ServerAnswer> result) {
  {
    MutexLock lock(&mu_);
    result_.emplace(std::move(result));
    done_ = true;
  }
  done_cv_.NotifyAll();
}

X3Server::X3Server(Database* db, X3ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      engine_(db),
      budget_(options_.admission_budget_bytes),
      temp_files_(options_.temp_dir, options_.env),
      cache_(options_.cache_capacity_bytes),
      query_log_(options_.query_log_capacity),
      pool_(std::make_unique<ThreadPool>(
          options_.num_threads != 0 ? options_.num_threads
                                    : ThreadPool::DefaultConcurrency())) {
  if (options_.watchdog_interval_seconds > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });  // x3-lint: allow(raw-thread) -- watchdog must outlive a wedged pool
  }
}

X3Server::~X3Server() {
  if (watchdog_.joinable()) {
    {
      MutexLock lock(&watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.NotifyAll();
    watchdog_.join();
  }
  // Drain queued and in-flight queries while every member they touch
  // is still alive (pool_ is declared last, so destroyed first).
  pool_.reset();
}

std::shared_ptr<X3Server::Ticket> X3Server::Submit(ServerRequest request) {
  std::shared_ptr<Ticket> ticket = std::unique_ptr<Ticket>(new Ticket());
  // Mint the query id before the ticket escapes: qid_ is immutable once
  // visible to the worker, Wait()ers or the watchdog.
  ticket->qid_ = next_qid_.fetch_add(1, std::memory_order_relaxed);
  pool_->Submit(
      [this, ticket, request = std::move(request)]() {
        RunTask(ticket, request);
      });
  return ticket;
}

Result<ServerAnswer> X3Server::Execute(ServerRequest request) {
  return Submit(std::move(request))->Wait();
}

size_t X3Server::num_shapes() const {
  MutexLock lock(&mu_);
  return shapes_.size();
}

void X3Server::RunTask(const std::shared_ptr<Ticket>& ticket,
                       const ServerRequest& request) {
  MetricRegistry& registry = MetricRegistry::Global();
  static Counter* queries = registry.GetCounter(
      "x3_server_queries_total", "Queries submitted to the serving layer");
  static Counter* cancelled = registry.GetCounter(
      "x3_server_cancelled_total", "Queries that unwound with kCancelled");
  static Counter* deadline_exceeded = registry.GetCounter(
      "x3_server_deadline_exceeded_total",
      "Queries that unwound with kDeadlineExceeded");
  static Counter* failures = registry.GetCounter(
      "x3_server_failures_total",
      "Queries that failed for a reason other than cancellation, "
      "deadline or admission");
  static Gauge* inflight =
      registry.GetGauge("x3_server_inflight", "Queries currently executing");

  queries->Increment();
  inflight->Add(1);

  // Every span, log line and query-log record downstream of this point
  // carries the server-minted qid.
  ScopedQueryId qid_scope(ticket->query_id());

  auto entry = std::make_shared<InflightEntry>();
  entry->qid = ticket->query_id();
  entry->tenant = request.tenant;
  entry->deadline_seconds = request.deadline_seconds.has_value()
                                ? *request.deadline_seconds
                                : options_.default_deadline_seconds;
  RegisterInflight(entry);

  QueryLogRecord record;
  record.qid = ticket->query_id();
  record.tenant = request.tenant;
  record.queue_seconds = ticket->queued_.ElapsedSeconds();
  record.cache_bypassed = !request.use_cache;
  record.algorithm_requested = request.algorithm;
  record.algorithm_used = request.algorithm;

  Timer timer;
  Result<ServerAnswer> result = [&]() -> Result<ServerAnswer> {
    X3_TRACE_SPAN(&Tracer::Global(), "server/query");
    return RunQuery(request, ticket.get(), entry.get(), &record);
  }();
  double seconds = timer.ElapsedSeconds();
  DeregisterInflight(ticket->query_id());
  QueryLatencyHistogram()->Observe(seconds);
  inflight->Add(-1);

  record.latency_seconds = seconds;
  record.budget_peak_bytes = budget_.peak();
  record.status = result.status().code();
  if (result.ok()) {
    result->latency_seconds = seconds;
    record.exact_hits = result->exact_hits;
    record.rollup_answers = result->rollup_answers;
    record.computed = result->computed;
    if (result->exact_hits > 0) {
      CacheHitsCounter()->Increment(result->exact_hits);
    }
    if (result->rollup_answers > 0) {
      RollupAnswersCounter()->Increment(result->rollup_answers);
    }
    if (result->computed) {
      CacheMissesCounter()->Increment();
    } else {
      CacheServedCounter()->Increment();
    }
  } else {
    record.error = result.status().message();
    switch (result.status().code()) {
      case StatusCode::kCancelled:
        cancelled->Increment();
        break;
      case StatusCode::kDeadlineExceeded:
        deadline_exceeded->Increment();
        break;
      case StatusCode::kResourceExhausted:
        // Counted at the admission check site.
        break;
      default:
        failures->Increment();
        break;
    }
  }
  if (options_.slow_query_threshold_seconds > 0 &&
      seconds >= options_.slow_query_threshold_seconds) {
    record.slow = true;
    SlowQueriesCounter()->Increment();
    X3_LOG(Warning) << "slow query: " << seconds * 1e3 << " ms (threshold "
                    << options_.slow_query_threshold_seconds * 1e3
                    << " ms), shape " << record.shape_key;
  }
  query_log_.Commit(std::move(record));
  ticket->Complete(std::move(result));
}

void X3Server::RegisterInflight(const std::shared_ptr<InflightEntry>& entry) {
  MutexLock lock(&inflight_mu_);
  inflight_.emplace(entry->qid, entry);
}

void X3Server::DeregisterInflight(uint64_t qid) {
  MutexLock lock(&inflight_mu_);
  inflight_.erase(qid);
}

Result<std::shared_ptr<X3Server::ShapeState>> X3Server::GetOrBuildShape(
    const std::string& key, const CubeQuery& query,
    const LatticeProperties* properties, ExecutionContext* ctx) {
  std::shared_ptr<ShapeState> shape;
  bool builder = false;
  {
    MutexLock lock(&mu_);
    auto it = shapes_.find(key);
    if (it == shapes_.end()) {
      shape = std::make_shared<ShapeState>();
      shapes_.emplace(key, shape);
      builder = true;
    } else {
      shape = it->second;
    }
  }

  if (builder) {
    // The pattern matcher reads the database: exclude the write lane's
    // mutation (db_mu_) for the duration of the build, and record the
    // commit horizon the snapshot reflects inside the same critical
    // section so the write path can tell whether a concurrently built
    // shape already covers its batch.
    uint64_t built_lsn = 0;
    Result<PreparedQuery> prepared = [&]() -> Result<PreparedQuery> {
      MutexLock db_lock(&db_mu_);
      Result<PreparedQuery> p = engine_.Prepare(query, ctx);
      built_lsn = db_->last_commit_lsn();
      return p;
    }();
    Status status = prepared.status();
    if (status.ok()) {
      auto snapshot = std::make_shared<ShapeSnapshot>();
      snapshot->prepared =
          std::make_unique<PreparedQuery>(std::move(*prepared));
      snapshot->built_lsn = built_lsn;
      shape->properties =
          properties != nullptr
              ? *properties
              : LatticeProperties::AssumeNothing(
                    snapshot->prepared->lattice);
      shape->disjoint_everywhere =
          shape->properties.DisjointEverywhere(snapshot->prepared->lattice);
      snapshot->views = std::make_unique<CubeViewStore>(
          &snapshot->prepared->facts, &snapshot->prepared->lattice);
      MutexLock lock(&shape->mu);
      shape->snapshot = std::move(snapshot);
    } else {
      // Drop the failed shape so a later query retries the build (a
      // cancelled or deadline-expired builder must not poison the
      // shape for every other tenant).
      MutexLock lock(&mu_);
      auto it = shapes_.find(key);
      if (it != shapes_.end() && it->second == shape) shapes_.erase(it);
    }
    {
      MutexLock lock(&shape->mu);
      shape->build_status = status;
      shape->ready = true;
    }
    shape->ready_cv.NotifyAll();
    ShapesGauge()->Set(static_cast<int64_t>(num_shapes()));
    X3_RETURN_IF_ERROR(status);
    return shape;
  }

  {
    MutexLock lock(&shape->mu);
    while (!shape->ready) shape->ready_cv.Wait(&shape->mu);
    X3_RETURN_IF_ERROR(shape->build_status);
  }
  return shape;
}

std::shared_ptr<const X3Server::ShapeSnapshot> X3Server::PinSnapshot(
    ShapeState* shape) {
  MutexLock lock(&shape->mu);
  return shape->snapshot;
}

Status X3Server::EnsureMaterialized(
    ShapeState* shape, const std::shared_ptr<const ShapeSnapshot>& snapshot,
    std::optional<CuboidId> target, ExecutionContext* ctx, CellMap* answer) {
  // The finest cuboid is the universal donor — TDOPTALL's roll-up
  // property means every coarser cuboid rolls up from it (with fact ids
  // when disjointness is unproven) — plus the requested cuboid itself
  // for exact-hit repeats.
  CuboidId finest = snapshot->prepared->lattice.FinestCuboid();
  std::vector<CuboidId> build;
  if (target != finest && !snapshot->views->Contains(finest)) {
    build.push_back(finest);
  }
  if (target.has_value()) build.push_back(*target);
  if (build.empty()) return Status::OK();

  ScopedStageTimer timer(ctx->stats(), "cache-fill", ctx->tracer());
  const uint64_t cells_before = ctx->costs().view_cells.value();
  // Fact ids repair disjointness for later roll-ups; when the property
  // map proves disjointness everywhere the id-less views suffice and
  // cost far less memory (§3.6's trade-off).
  Status built = snapshot->views->Materialize(
      build, !shape->disjoint_everywhere, ctx, answer);
  timer.AddRows(ctx->costs().view_cells.value() - cells_before);
  X3_RETURN_IF_ERROR(built);
  std::vector<size_t> bytes;
  for (CuboidId cuboid : build) {
    bytes.push_back(snapshot->views->ViewApproxBytes(cuboid));
  }
  // Register with the cache only while this snapshot is still current:
  // the swap in MaintainShape and these inserts are both under
  // shape->mu, so a retired snapshot's store never (re)enters the cache
  // after its entries were dropped.
  MutexLock lock(&shape->mu);
  if (shape->snapshot != snapshot) return Status::OK();
  for (size_t i = 0; i < build.size(); ++i) {
    cache_.Insert(snapshot->views.get(), build[i], bytes[i]);
  }
  return Status::OK();
}

Result<ServerAnswer> X3Server::RunQuery(const ServerRequest& request,
                                        Ticket* ticket,
                                        InflightEntry* inflight,
                                        QueryLogRecord* record) {
  inflight->stage.store("compile", std::memory_order_relaxed);
  CubeQuery query;
  if (request.query.has_value()) {
    query = *request.query;
  } else {
    X3_ASSIGN_OR_RETURN(query, engine_.Compile(request.query_text));
  }
  record->shape_key = NormalizedQueryKey(query);

  double deadline_seconds = request.deadline_seconds.has_value()
                                ? *request.deadline_seconds
                                : options_.default_deadline_seconds;
  ExecutionContext::Options ctx_options;
  ctx_options.budget = &budget_;
  ctx_options.temp_files = &temp_files_;
  ctx_options.cancel = &ticket->token_;
  ctx_options.query_id = ticket->query_id();
  if (deadline_seconds > 0) {
    ctx_options.deadline = DeadlineAfterSeconds(deadline_seconds);
  }
  ExecutionContext ctx(ctx_options);
  X3_RETURN_IF_ERROR(ctx.CheckInterrupted());

  // Copies the context's per-stage breakdown into the query-log record
  // on EVERY exit path (success, cancellation, deadline, failure) — a
  // cancelled query's record shows which stage it died in. Safe at
  // scope exit: by the time RunQuery unwinds, the executor has drained
  // its workers (the same quiesce contract that lets ctx be destroyed).
  struct StageCopy {
    ExecutionContext* ctx;
    QueryLogRecord* record;
    ~StageCopy() {
      for (const StageTiming& t : ctx->stats()->timings()) {
        record->stages.push_back(
            QueryStageMs{t.label, t.seconds * 1e3, t.rows, t.bytes});
      }
      record->spill_bytes = ctx->costs().spill_bytes.value();
    }
  } stage_copy{&ctx, record};

  if (request.debug_hold_seconds > 0) {
    // Test hook: a cancellation- and deadline-honoring stall inside the
    // worker, so watchdog and slow-lane tests can manufacture a stuck
    // or slow query deterministically.
    inflight->stage.store("debug-hold", std::memory_order_relaxed);
    ScopedStageTimer hold_timer(ctx.stats(), "debug-hold", ctx.tracer());
    Timer hold;
    while (hold.ElapsedSeconds() < request.debug_hold_seconds) {
      X3_RETURN_IF_ERROR(ctx.CheckInterrupted());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  inflight->stage.store("build-shape", std::memory_order_relaxed);
  X3_ASSIGN_OR_RETURN(std::shared_ptr<ShapeState> shape,
                      GetOrBuildShape(record->shape_key, query,
                                      request.properties, &ctx));
  // Pin the shape's current snapshot for the whole query: a write
  // batch committing concurrently swaps in a NEW snapshot, so this
  // query reads a consistent (entirely pre- or entirely post-batch)
  // fact table + view store pair throughout.
  std::shared_ptr<const ShapeSnapshot> snapshot = PinSnapshot(shape.get());
  if (snapshot == nullptr) {
    return Status::Internal("shape ready without a snapshot");
  }
  const CubeLattice& lattice = snapshot->prepared->lattice;
  const FactTable& facts = snapshot->prepared->facts;

  if (request.target.has_value() &&
      *request.target >= lattice.num_cuboids()) {
    return Status::InvalidArgument(
        "target cuboid " + std::to_string(*request.target) +
        " out of range (lattice has " +
        std::to_string(lattice.num_cuboids()) + " cuboids)");
  }

  // Admission control: the shape's fact table is the working-set floor
  // of any algorithm over it. Reserve (hard cap) refuses the query
  // outright instead of letting concurrent tenants overshoot together.
  inflight->stage.store("admission", std::memory_order_relaxed);
  size_t admission_bytes = facts.ApproxBytes();
  if (!budget_.Reserve(admission_bytes).ok()) {
    AdmissionDeniedCounter()->Increment();
    return Status::ResourceExhausted(
        "admission denied: query working set of " +
        std::to_string(admission_bytes) + " bytes does not fit the " +
        "remaining budget (" + std::to_string(budget_.available()) +
        " of " + std::to_string(budget_.capacity()) + " bytes free)");
  }
  ScopedRelease release(&budget_, admission_bytes);

  ServerAnswer answer;
  answer.aggregate = query.aggregate;
  answer.num_cuboids_in_lattice = lattice.num_cuboids();

  std::vector<CuboidId> targets;
  if (request.target.has_value()) {
    targets.push_back(*request.target);
  } else {
    targets = lattice.TopoOrder();
  }

  std::vector<std::pair<CuboidId, CellMap>> cells;
  bool all_from_cache = request.use_cache;
  if (request.use_cache) {
    inflight->stage.store("cache-lookup", std::memory_order_relaxed);
    for (CuboidId target : targets) {
      X3_RETURN_IF_ERROR(ctx.Poll());
      ViewComputeStats view_stats;
      Result<CellMap> from_views = snapshot->views->AnswerFromViews(
          target, query.aggregate, &shape->properties, &view_stats);
      if (from_views.ok()) {
        cache_.Touch(snapshot->views.get(), view_stats.source_view);
        if (view_stats.strategy == ViewStrategy::kExact) {
          ++answer.exact_hits;
        } else {
          ++answer.rollup_answers;
        }
        cells.emplace_back(target, std::move(*from_views));
      } else if (from_views.status().code() == StatusCode::kNotFound) {
        all_from_cache = false;
        cells.clear();
        break;
      } else {
        return from_views.status();
      }
    }
  }

  auto past_slow_threshold = [&] {
    return options_.slow_query_threshold_seconds > 0 &&
           inflight->started.ElapsedSeconds() >=
               options_.slow_query_threshold_seconds;
  };
  if (!all_from_cache && request.use_cache && request.target.has_value()) {
    // A single-cuboid miss builds the views the cache keeps and answers
    // from the target's: a per-cuboid evaluation from base, so no
    // lattice compute runs and no downgrade applies.
    inflight->stage.store("cache-fill", std::memory_order_relaxed);
    CellMap target_cells;
    X3_RETURN_IF_ERROR(EnsureMaterialized(shape.get(), snapshot,
                                          request.target, &ctx,
                                          &target_cells));
    if (past_slow_threshold()) {
      std::optional<StageTiming> t = ctx.stats()->Find("cache-fill");
      record->slow_explain = StringPrintf(
          "view-built miss: cuboid %llu from base, %llu facts scanned, "
          "%llu cells built, %.3f ms",
          static_cast<unsigned long long>(*request.target),
          static_cast<unsigned long long>(ctx.costs().base_scans.value() *
                                          facts.size()),
          static_cast<unsigned long long>(ctx.costs().view_cells.value()),
          t.has_value() ? t->seconds * 1e3 : 0.0);
    }
    cells.emplace_back(*request.target, std::move(target_cells));
    answer.computed = true;
    answer.algorithm_used = CubeAlgorithm::kReference;
    record->algorithm_used = CubeAlgorithm::kReference;
  } else if (!all_from_cache) {
    answer.exact_hits = 0;
    answer.rollup_answers = 0;
    inflight->stage.store("compute", std::memory_order_relaxed);
    CubeAlgorithm algorithm = request.algorithm;
    CubePlan plan = BuildCubePlan(algorithm, lattice, shape->properties);
    if (plan.unsafe_steps > 0) {
      algorithm = SafeCounterpart(algorithm);
      PlanDowngradeCounter()->Increment();
      record->downgraded = true;
    }
    record->algorithm_used = algorithm;
    CubeComputeOptions compute;
    compute.aggregate = query.aggregate;
    compute.properties = &shape->properties;
    compute.exec = &ctx;
    compute.parallelism = request.parallelism;
    // min_count stays 0: the cache holds unfiltered cells so requests
    // with different iceberg thresholds share the same views; the
    // filter is applied per request below.
    X3_ASSIGN_OR_RETURN(
        CubeResult cube,
        ComputeCube(algorithm, facts, lattice, compute));  // x3-lint: allow(server-compute-cube) -- the full-cube and cache-bypass miss path
    if (past_slow_threshold()) {
      // Slow lane: this query is already past the threshold, so RunTask
      // will mark its record slow — attach the full plan-with-actuals
      // rendering while the cube is still alive. The plan is rebuilt
      // for the algorithm that actually ran (post-downgrade).
      CubePlan ran = algorithm == request.algorithm
                         ? std::move(plan)
                         : BuildCubePlan(algorithm, lattice,
                                         shape->properties);
      record->slow_explain =
          ExplainCubePlanWithActuals(ran, lattice, *ctx.stats(), cube);
    }
    for (CuboidId target : targets) {
      cells.emplace_back(target, std::move(*cube.mutable_cuboid(target)));
    }
    answer.computed = true;
    answer.algorithm_used = algorithm;
    if (request.use_cache) {
      inflight->stage.store("cache-fill", std::memory_order_relaxed);
      X3_RETURN_IF_ERROR(EnsureMaterialized(shape.get(), snapshot,
                                            std::nullopt, &ctx, nullptr));
    }
  }

  inflight->stage.store("finalize", std::memory_order_relaxed);
  int64_t min_count = std::max(query.min_count, request.min_count);
  for (auto& [id, map] : cells) ApplyIcebergFilter(&map, min_count);
  answer.cuboids = std::move(cells);
  return answer;
}

Result<bool> X3Server::MaintainShape(ShapeState* shape,
                                     NodeId first_new_node,
                                     uint64_t commit_lsn, DeltaStats* stats) {
  std::shared_ptr<const ShapeSnapshot> old = PinSnapshot(shape);
  if (old == nullptr) return false;
  // A shape built concurrently with (or after) the commit already
  // evaluated its pattern over the post-batch database; appending the
  // batch's facts again would double-count them.
  if (old->built_lsn >= commit_lsn) return false;

  const PreparedQuery& prev = *old->prepared;
  size_t first_new_fact = prev.facts.size();
  FactTable facts = prev.facts.Clone();
  X3_ASSIGN_OR_RETURN(size_t appended,
                      AppendNewFacts(*db_, prev.query, prev.lattice,
                                     first_new_node, &facts));
  if (appended == 0) {
    // No fact of the batch matched this shape: the old snapshot is
    // still exact, keep serving it (and its cached views) untouched.
    return false;
  }

  auto next = std::make_shared<ShapeSnapshot>();
  next->prepared = std::make_unique<PreparedQuery>(prev.query, prev.lattice,
                                                   std::move(facts));
  next->built_lsn = commit_lsn;
  next->views = std::make_unique<CubeViewStore>(&next->prepared->facts,
                                                &next->prepared->lattice);

  DeltaPlan plan =
      PlanViewDeltas(*old->views, next->prepared->facts,
                     next->prepared->lattice, shape->properties,
                     first_new_fact);
  DeltaStats local;
  X3_RETURN_IF_ERROR(
      ApplyViewDeltas(*old->views, next->views.get(), plan, &local));
  stats->views_patched += local.views_patched;
  stats->views_recomputed += local.views_recomputed;
  stats->facts_applied += local.facts_applied;
  stats->cells_touched += local.cells_touched;

  // Atomic publish: swap the snapshot and move the cache accounting
  // from the retired store to the new one in one shape->mu critical
  // section, so a racing reader either inserts into the still-current
  // old store (dropped right here) or observes the swap and skips.
  MutexLock lock(&shape->mu);
  cache_.DropStore(old->views.get());
  shape->snapshot = next;
  // Only the views the new store holds: a merge view evicted from the
  // old store after planning was skipped by the apply.
  for (const auto& view : next->views->MaterializedViews()) {
    cache_.Insert(next->views.get(), view.first,
                  next->views->ViewApproxBytes(view.first));
  }
  return true;
}

Result<ServerWriteResult> X3Server::CommitDocuments(
    const std::vector<std::string>& documents) {
  MutexLock write_lock(&write_mu_);
  X3_TRACE_SPAN(&Tracer::Global(), "server/commit");
  ServerWriteResult result;
  result.documents = documents.size();

  NodeId first_new_node = 0;
  {
    // Database mutation happens with shape builds excluded (they read
    // the node store through the pattern matcher).
    MutexLock db_lock(&db_mu_);
    first_new_node = db_->node_count();
    Status begin = db_->BeginBatch();
    if (!begin.ok()) {
      WalCommitFailuresCounter()->Increment();
      return begin;
    }
    for (const std::string& xml : documents) {
      Result<NodeId> root = db_->LoadXmlString(xml);
      if (!root.ok()) {
        db_->RollbackBatch().IgnoreError();
        WalCommitFailuresCounter()->Increment();
        return root.status();
      }
    }
    Result<uint64_t> lsn = db_->CommitBatch();
    if (!lsn.ok()) {
      WalCommitFailuresCounter()->Increment();
      return lsn.status();
    }
    result.commit_lsn = *lsn;
  }
  WalDocumentsCounter()->Increment(documents.size());
  WalLastCommitLsnGauge()->Set(static_cast<int64_t>(result.commit_lsn));

  // The batch is durable; fold it into every resident shape. Readers
  // keep answering from their pinned snapshots throughout.
  std::vector<std::pair<std::string, std::shared_ptr<ShapeState>>> shapes;
  {
    MutexLock lock(&mu_);
    shapes.reserve(shapes_.size());
    for (const auto& [key, shape] : shapes_) shapes.emplace_back(key, shape);
  }
  for (const auto& [key, shape] : shapes) {
    bool usable = [&shape = shape] {
      MutexLock lock(&shape->mu);
      while (!shape->ready) shape->ready_cv.Wait(&shape->mu);
      return shape->build_status.ok();
    }();
    if (!usable) continue;
    Result<bool> updated = MaintainShape(shape.get(), first_new_node,
                                         result.commit_lsn, &result.delta);
    if (updated.ok()) {
      if (*updated) ++result.shapes_updated;
      continue;
    }
    // Maintenance failed (the batch is durable regardless): drop the
    // shape so the next query rebuilds it from the post-batch database
    // instead of serving a stale fact table.
    std::shared_ptr<const ShapeSnapshot> old = PinSnapshot(shape.get());
    if (old != nullptr) cache_.DropStore(old->views.get());
    {
      MutexLock lock(&mu_);
      auto it = shapes_.find(key);
      if (it != shapes_.end() && it->second == shape) shapes_.erase(it);
    }
    ShapesDroppedCounter()->Increment();
    ShapesGauge()->Set(static_cast<int64_t>(num_shapes()));
  }
  return result;
}

Status X3Server::Checkpoint() {
  MutexLock write_lock(&write_mu_);
  MutexLock db_lock(&db_mu_);
  return db_->Checkpoint();
}

void X3Server::WatchdogLoop() {
  Tracer::Global().SetCurrentThreadName("watchdog");
  for (;;) {
    {
      MutexLock lock(&watchdog_mu_);
      if (!watchdog_stop_) {
        // Spurious wakeups just scan early; the scan is idempotent.
        watchdog_cv_.WaitFor(&watchdog_mu_,
                             options_.watchdog_interval_seconds);
      }
      if (watchdog_stop_) return;
    }
    // Scan with NO lock held: the whole point of the watchdog is to
    // keep working while the rest of the server is wedged.
    WatchdogScanOnce();
  }
}

size_t X3Server::WatchdogScanOnce() {
  std::vector<std::shared_ptr<InflightEntry>> entries;
  {
    MutexLock lock(&inflight_mu_);
    entries.reserve(inflight_.size());
    for (const auto& [qid, entry] : inflight_) entries.push_back(entry);
  }
  size_t newly_flagged = 0;
  for (const std::shared_ptr<InflightEntry>& e : entries) {
    double age = e->started.ElapsedSeconds();
    double threshold =
        e->deadline_seconds > 0
            ? options_.stuck_deadline_multiple * e->deadline_seconds
            : options_.stuck_after_seconds;
    if (threshold <= 0 || age < threshold) continue;
    // Flag once per query: exchange() makes repeat scans of the same
    // stuck query free and keeps the counter an exact stuck-query count.
    if (e->stuck.exchange(true, std::memory_order_relaxed)) continue;
    ++newly_flagged;
    StuckQueriesCounter()->Increment();
    X3_LOG(Warning) << "watchdog: qid=" << e->qid << " tenant='" << e->tenant
                    << "' stuck in stage '"
                    << e->stage.load(std::memory_order_relaxed) << "' for "
                    << age << " s (threshold " << threshold << " s)";
  }
  if (newly_flagged > 0) {
    // One-shot context dump per flagging pass: the operator gets the
    // full server picture next to the warning, not just the qid.
    X3_LOG(Warning) << "watchdog: " << newly_flagged
                    << " newly stuck quer"
                    << (newly_flagged == 1 ? "y" : "ies")
                    << "; statusz dump:\n"
                    << Statusz().ToText();
  }
  return newly_flagged;
}

StatuszReport X3Server::Statusz() const {
  StatuszReport r;
  r.uptime_seconds = started_.ElapsedSeconds();
  r.num_threads = pool_->num_threads();
  r.queue_depth = pool_->queue_depth();
  r.queries_submitted = next_qid_.load(std::memory_order_relaxed) - 1;

  {
    MutexLock lock(&inflight_mu_);
    r.inflight.reserve(inflight_.size());
    for (const auto& [qid, entry] : inflight_) {
      StatuszQuery q;
      q.qid = qid;
      q.tenant = entry->tenant;
      q.stage = entry->stage.load(std::memory_order_relaxed);
      q.age_seconds = entry->started.ElapsedSeconds();
      q.stuck = entry->stuck.load(std::memory_order_relaxed);
      r.inflight.push_back(std::move(q));
    }
  }
  std::sort(r.inflight.begin(), r.inflight.end(),
            [](const StatuszQuery& a, const StatuszQuery& b) {
              return a.qid < b.qid;
            });

  std::vector<std::pair<std::string, std::shared_ptr<ShapeState>>> shapes;
  {
    MutexLock lock(&mu_);
    shapes.reserve(shapes_.size());
    for (const auto& [key, shape] : shapes_) shapes.emplace_back(key, shape);
  }
  std::sort(shapes.begin(), shapes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, shape] : shapes) {
    StatuszShape s;
    s.key = key;
    // A shape mid-build reports zeros rather than blocking on its latch.
    std::shared_ptr<const ShapeSnapshot> snapshot = PinSnapshot(shape.get());
    if (snapshot != nullptr) {
      s.built_lsn = snapshot->built_lsn;
      s.fact_rows = snapshot->prepared->facts.size();
    }
    r.shapes.push_back(std::move(s));
  }

  r.last_commit_lsn = db_->last_commit_lsn();
  r.durable_lsn = db_->durable_lsn();

  r.cache_bytes = cache_.bytes();
  r.cache_views = cache_.num_views();
  r.cache_evictions = cache_.evictions();
  // The very counters RunTask increments (same accessors), so a statusz
  // snapshot and a metrics scrape agree by construction.
  r.cache_hits = CacheHitsCounter()->value();
  r.rollup_answers = RollupAnswersCounter()->value();
  r.cache_misses = CacheMissesCounter()->value();
  uint64_t served = CacheServedCounter()->value();
  r.cache_hit_ratio =
      served + r.cache_misses > 0
          ? static_cast<double>(served) /
                static_cast<double>(served + r.cache_misses)
          : 0;

  r.budget_capacity_bytes = budget_.capacity();
  r.budget_used_bytes = budget_.used();
  r.budget_peak_bytes = budget_.peak();
  r.admission_denied = AdmissionDeniedCounter()->value();
  r.stuck_queries = StuckQueriesCounter()->value();

  Histogram* latency = QueryLatencyHistogram();
  r.latency_p50_ms = latency->Quantile(0.50) * 1e3;
  r.latency_p95_ms = latency->Quantile(0.95) * 1e3;
  r.latency_p99_ms = latency->Quantile(0.99) * 1e3;
  return r;
}

std::string StatuszReport::ToText() const {
  std::string out;
  out += StringPrintf("x3 server: up %.1f s, %zu worker threads\n",
                      uptime_seconds, num_threads);
  out += StringPrintf(
      "queries: %llu submitted, %zu in flight, %zu queued\n",
      static_cast<unsigned long long>(queries_submitted), inflight.size(),
      queue_depth);
  out += StringPrintf("latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
                      latency_p50_ms, latency_p95_ms, latency_p99_ms);
  for (const StatuszQuery& q : inflight) {
    out += StringPrintf("  qid=%llu tenant='%s' stage=%s age=%.3f s%s\n",
                        static_cast<unsigned long long>(q.qid),
                        q.tenant.c_str(), q.stage, q.age_seconds,
                        q.stuck ? " STUCK" : "");
  }
  out += StringPrintf(
      "wal: last_commit_lsn=%llu durable_lsn=%llu\n",
      static_cast<unsigned long long>(last_commit_lsn),
      static_cast<unsigned long long>(durable_lsn));
  out += StringPrintf("shapes: %zu resident\n", shapes.size());
  for (const StatuszShape& s : shapes) {
    out += StringPrintf("  built_lsn=%llu fact_rows=%zu key=%s\n",
                        static_cast<unsigned long long>(s.built_lsn),
                        s.fact_rows, s.key.c_str());
  }
  out += StringPrintf(
      "cache: %zu views, %zu bytes, %llu evictions, hit ratio %.3f "
      "(%llu exact + %llu rollup vs %llu miss)\n",
      cache_views, cache_bytes,
      static_cast<unsigned long long>(cache_evictions), cache_hit_ratio,
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(rollup_answers),
      static_cast<unsigned long long>(cache_misses));
  out += StringPrintf(
      "budget: %zu/%zu bytes used, peak %zu, %llu admission denials\n",
      budget_used_bytes, budget_capacity_bytes, budget_peak_bytes,
      static_cast<unsigned long long>(admission_denied));
  out += StringPrintf("watchdog: %llu stuck queries flagged\n",
                      static_cast<unsigned long long>(stuck_queries));
  return out;
}

std::string StatuszReport::ToJson() const {
  std::string out = "{";
  out += StringPrintf("\"uptime_seconds\":%.3f", uptime_seconds);
  out += StringPrintf(",\"num_threads\":%zu", num_threads);
  out += StringPrintf(",\"queries_submitted\":%llu",
                      static_cast<unsigned long long>(queries_submitted));
  out += StringPrintf(",\"queue_depth\":%zu", queue_depth);
  out += ",\"inflight\":[";
  for (size_t i = 0; i < inflight.size(); ++i) {
    const StatuszQuery& q = inflight[i];
    if (i > 0) out += ",";
    out += StringPrintf("{\"qid\":%llu,\"tenant\":",
                        static_cast<unsigned long long>(q.qid));
    out += JsonQuote(q.tenant);
    out += ",\"stage\":";
    out += JsonQuote(q.stage);
    out += StringPrintf(",\"age_seconds\":%.3f,\"stuck\":%s}", q.age_seconds,
                        q.stuck ? "true" : "false");
  }
  out += "]";
  out += ",\"shapes\":[";
  for (size_t i = 0; i < shapes.size(); ++i) {
    const StatuszShape& s = shapes[i];
    if (i > 0) out += ",";
    out += "{\"key\":" + JsonQuote(s.key);
    out += StringPrintf(",\"built_lsn\":%llu,\"fact_rows\":%zu}",
                        static_cast<unsigned long long>(s.built_lsn),
                        s.fact_rows);
  }
  out += "]";
  out += StringPrintf(",\"last_commit_lsn\":%llu",
                      static_cast<unsigned long long>(last_commit_lsn));
  out += StringPrintf(",\"durable_lsn\":%llu",
                      static_cast<unsigned long long>(durable_lsn));
  out += StringPrintf(",\"cache_bytes\":%zu", cache_bytes);
  out += StringPrintf(",\"cache_views\":%zu", cache_views);
  out += StringPrintf(",\"cache_evictions\":%llu",
                      static_cast<unsigned long long>(cache_evictions));
  out += StringPrintf(",\"cache_hits\":%llu",
                      static_cast<unsigned long long>(cache_hits));
  out += StringPrintf(",\"rollup_answers\":%llu",
                      static_cast<unsigned long long>(rollup_answers));
  out += StringPrintf(",\"cache_misses\":%llu",
                      static_cast<unsigned long long>(cache_misses));
  out += StringPrintf(",\"cache_hit_ratio\":%.6f", cache_hit_ratio);
  out += StringPrintf(",\"budget_capacity_bytes\":%zu",
                      budget_capacity_bytes);
  out += StringPrintf(",\"budget_used_bytes\":%zu", budget_used_bytes);
  out += StringPrintf(",\"budget_peak_bytes\":%zu", budget_peak_bytes);
  out += StringPrintf(",\"admission_denied\":%llu",
                      static_cast<unsigned long long>(admission_denied));
  out += StringPrintf(",\"stuck_queries\":%llu",
                      static_cast<unsigned long long>(stuck_queries));
  out += StringPrintf(",\"latency_p50_ms\":%.3f", latency_p50_ms);
  out += StringPrintf(",\"latency_p95_ms\":%.3f", latency_p95_ms);
  out += StringPrintf(",\"latency_p99_ms\":%.3f", latency_p99_ms);
  out += "}";
  return out;
}

}  // namespace x3
