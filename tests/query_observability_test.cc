// Tests for the query-lifecycle observability plane (DESIGN.md §13):
// server-minted query ids on spans and log lines, the structured
// QueryLog ring, the slow-query lane, Statusz introspection, the
// stuck-query watchdog, derived histogram percentiles and the
// thread-pool queue-depth gauge. Runs under the tsan label: the ring,
// the inflight registry and the watchdog are all cross-thread state.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/treebank_gen.h"
#include "gen/workload.h"
#include "schema/dtd_parser.h"
#include "server/query_log.h"
#include "server/x3_server.h"
#include "util/metrics.h"
#include "util/query_id.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace x3 {
namespace {

uint64_t CounterValue(const std::string& name) {
  return MetricRegistry::Global().GetCounter(name, "")->value();
}

// ---------------------------------------------------------------------
// ScopedQueryId.

TEST(QueryIdTest, DefaultsToZeroAndRestoresOnUnwind) {
  EXPECT_EQ(CurrentQueryId(), 0u);
  {
    ScopedQueryId outer(7);
    EXPECT_EQ(CurrentQueryId(), 7u);
    {
      ScopedQueryId inner(9);
      EXPECT_EQ(CurrentQueryId(), 9u);
    }
    EXPECT_EQ(CurrentQueryId(), 7u);
  }
  EXPECT_EQ(CurrentQueryId(), 0u);
}

TEST(QueryIdTest, IsThreadLocal) {
  ScopedQueryId scope(42);
  uint64_t seen_on_other_thread = 99;
  std::thread t([&] { seen_on_other_thread = CurrentQueryId(); });
  t.join();
  EXPECT_EQ(seen_on_other_thread, 0u);
  EXPECT_EQ(CurrentQueryId(), 42u);
}

// ---------------------------------------------------------------------
// Histogram::Quantile.

TEST(HistogramQuantileTest, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
}

TEST(HistogramQuantileTest, InterpolatesWithinBucket) {
  Histogram h;
  // 100 observations in one bucket: quantiles interpolate linearly
  // across that bucket's [lower, upper) range and stay ordered.
  for (int i = 0; i < 100; ++i) h.Observe(2e-6);
  double p50 = h.Quantile(0.50);
  double p95 = h.Quantile(0.95);
  double p99 = h.Quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // The bucket containing 2e-6 is (1e-6, 4e-6].
  EXPECT_GE(p50, 1e-6);
  EXPECT_LE(p99, 4e-6);
}

TEST(HistogramQuantileTest, SeparatesDistinctBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Observe(2e-6);   // fast mode
  for (int i = 0; i < 10; ++i) h.Observe(1.0);    // slow tail
  EXPECT_LE(h.Quantile(0.50), 4e-6);
  EXPECT_GE(h.Quantile(0.99), 0.25);  // lands in the tail's bucket
}

TEST(HistogramQuantileTest, ClampsOutOfRangeQ) {
  Histogram h;
  h.Observe(2e-6);
  EXPECT_GE(h.Quantile(-1.0), 0.0);
  EXPECT_LE(h.Quantile(2.0), 4e-6);
}

// ---------------------------------------------------------------------
// QueryLog ring.

QueryLogRecord MakeRecord(uint64_t qid) {
  QueryLogRecord r;
  r.qid = qid;
  r.tenant = "t";
  r.shape_key = "shape";
  return r;
}

TEST(QueryLogTest, KeepsEverythingBelowCapacity) {
  QueryLog log(8);
  for (uint64_t q = 1; q <= 5; ++q) log.Commit(MakeRecord(q));
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.size(), 5u);
  std::vector<QueryLogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].qid, i + 1);
  }
}

TEST(QueryLogTest, WrapOverwritesOldestKeepsOrder) {
  QueryLog log(4);
  for (uint64_t q = 1; q <= 10; ++q) log.Commit(MakeRecord(q));
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.size(), 4u);
  std::vector<QueryLogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first: the 4 newest records in commit order.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].qid, 7 + i);
  }
}

TEST(QueryLogTest, ConcurrentCommitsNeverLoseOrDuplicate) {
  // Ring-wrap safety under contention: capacity far below the commit
  // count, so writers continuously overwrite while readers snapshot.
  QueryLog log(16);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Commit(MakeRecord(static_cast<uint64_t>(t) * kPerThread + i + 1));
      }
    });
  }
  // A concurrent reader snapshotting mid-wrap must always see exactly
  // min(total-so-far, capacity) well-formed records.
  threads.emplace_back([&log] {
    for (int i = 0; i < 200; ++i) {
      std::vector<QueryLogRecord> snap = log.Snapshot();
      EXPECT_LE(snap.size(), log.capacity());
      for (const QueryLogRecord& r : snap) {
        EXPECT_GE(r.qid, 1u);
        EXPECT_EQ(r.tenant, "t");
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.total(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.size(), log.capacity());
}

TEST(QueryLogTest, JsonRecordEscapesAndCarriesFields) {
  QueryLogRecord r = MakeRecord(3);
  r.tenant = "a\"b\n";
  r.stages.push_back(QueryStageMs{"compute", 1.5, 10, 20});
  r.slow = true;
  r.slow_explain = "line1\nline2";
  std::string json = QueryLogRecordToJson(r);
  EXPECT_NE(json.find("\"qid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"a\\\"b\\n\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"slow\":true"), std::string::npos);
  EXPECT_NE(json.find("\\nline2"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line
}

// ---------------------------------------------------------------------
// ThreadPool queue-depth gauge.

TEST(ThreadPoolQueueDepthTest, TracksQueuedTasksAndDrainsToZero) {
  Gauge* gauge = MetricRegistry::Global().GetGauge(
      "x3_threadpool_queue_depth", "");
  int64_t base = gauge->value();
  {
    ThreadPool pool(1);
    // Block the only worker, then pile tasks up behind it.
    Mutex mu{lock_rank::kLogCapture};
    CondVar cv;
    bool release = false;
    bool running = false;
    pool.Submit([&] {
      MutexLock lock(&mu);
      running = true;
      cv.NotifyAll();
      while (!release) cv.Wait(&mu);
    });
    {
      MutexLock lock(&mu);
      while (!running) cv.Wait(&mu);
    }
    for (int i = 0; i < 3; ++i) pool.Submit([] {});
    EXPECT_EQ(pool.queue_depth(), 3u);
    EXPECT_EQ(gauge->value(), base + 3);
    {
      MutexLock lock(&mu);
      release = true;
    }
    cv.NotifyAll();
  }
  // Pool destroyed = drained: every queued task left the queue.
  EXPECT_EQ(gauge->value(), base);
}

// ---------------------------------------------------------------------
// Server fixture: one small Treebank corpus, properties inferred.

struct ServerFixture {
  std::unique_ptr<Database> db;
  CubeQuery query;
  LatticeProperties properties;

  ServerFixture() {
    auto opened = Database::Open({});
    EXPECT_TRUE(opened.ok());
    db = std::move(*opened);
    ExperimentSetting setting;
    setting.num_axes = 3;
    setting.num_trees = 60;
    setting.coverage_holds = false;
    setting.disjointness_holds = false;
    setting.dense = true;
    setting.seed = 991;
    TreebankConfig config = MakeTreebankConfig(setting);
    TreebankGenerator gen(config);
    EXPECT_TRUE(gen.LoadInto(db.get(), setting.num_trees).ok());
    query = MakeTreebankQuery(config);
    auto schema = ParseDtd(gen.MatchingDtd());
    EXPECT_TRUE(schema.ok());
    X3Engine engine(db.get());
    auto prepared = engine.Prepare(query);
    EXPECT_TRUE(prepared.ok());
    auto props =
        InferLatticeProperties(*schema, prepared->lattice, TreebankRootTag());
    EXPECT_TRUE(props.ok());
    properties = std::move(*props);
  }

  ServerRequest Request(const std::string& tenant) const {
    ServerRequest request;
    request.query = query;
    request.properties = &properties;
    request.target = 0;
    request.tenant = tenant;
    return request;
  }
};

TEST(QueryObservabilityTest, OneRecordPerQueryWithDenseQids) {
  ServerFixture fx;
  X3ServerOptions options;
  options.num_threads = 3;
  X3Server server(fx.db.get(), options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &fx, c] {
      for (int i = 0; i < kPerClient; ++i) {
        auto answer =
            server.Execute(fx.Request("tenant-" + std::to_string(c)));
        EXPECT_TRUE(answer.ok());
      }
    });
  }
  for (auto& t : clients) t.join();

  constexpr uint64_t kTotal = kClients * kPerClient;
  EXPECT_EQ(server.query_log().total(), kTotal);
  std::vector<QueryLogRecord> records = server.query_log().Snapshot();
  ASSERT_EQ(records.size(), kTotal);
  std::set<uint64_t> qids;
  for (const QueryLogRecord& r : records) {
    qids.insert(r.qid);
    EXPECT_EQ(r.status, StatusCode::kOk);
    EXPECT_FALSE(r.shape_key.empty());
    EXPECT_GE(r.latency_seconds, 0.0);
    EXPECT_GE(r.queue_seconds, 0.0);
    EXPECT_FALSE(r.tenant.empty());
  }
  // Exactly one record per submitted query, qids dense from 1.
  EXPECT_EQ(qids.size(), kTotal);
  EXPECT_EQ(*qids.begin(), 1u);
  EXPECT_EQ(*qids.rbegin(), kTotal);
}

TEST(QueryObservabilityTest, SlowLaneFiresExactlyForOverThresholdQueries) {
  ServerFixture fx;
  X3ServerOptions options;
  options.num_threads = 2;
  options.slow_query_threshold_seconds = 0.25;
  X3Server server(fx.db.get(), options);

  // A batch of healthy queries (micro/millisecond latencies)...
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(server.Execute(fx.Request("fast")).ok());
  }
  // ...and one held past the threshold.
  ServerRequest slow = fx.Request("slow");
  slow.debug_hold_seconds = 0.4;
  EXPECT_TRUE(server.Execute(std::move(slow)).ok());

  size_t slow_records = 0;
  for (const QueryLogRecord& r : server.query_log().Snapshot()) {
    // The flag is derived from the recorded latency: slow iff over
    // threshold, for every record.
    EXPECT_EQ(r.slow,
              r.latency_seconds >= options.slow_query_threshold_seconds)
        << "qid " << r.qid;
    if (r.slow) {
      ++slow_records;
      EXPECT_EQ(r.tenant, "slow");
      if (r.computed) {
        // The slow lane attached the full plan-with-actuals rendering.
        EXPECT_NE(r.slow_explain.find("cuboid"), std::string::npos);
      }
    } else {
      EXPECT_TRUE(r.slow_explain.empty());
    }
  }
  EXPECT_EQ(slow_records, 1u);
}

TEST(QueryObservabilityTest, WatchdogFlagsStalledQueryOnce) {
  ServerFixture fx;
  uint64_t stuck_before = CounterValue("x3_server_stuck_queries_total");
  X3ServerOptions options;
  options.num_threads = 2;
  options.watchdog_interval_seconds = 0.02;
  options.stuck_after_seconds = 0.1;  // deadline-less stall threshold
  X3Server server(fx.db.get(), options);

  ServerRequest stall = fx.Request("stall");
  stall.debug_hold_seconds = 0.5;
  auto ticket = server.Submit(std::move(stall));
  EXPECT_TRUE(ticket->Wait().ok());
  // The stall outlived several watchdog ticks past the threshold, but
  // the flag fires exactly once per query.
  EXPECT_EQ(CounterValue("x3_server_stuck_queries_total"), stuck_before + 1);
  ASSERT_EQ(server.query_log().total(), 1u);
  EXPECT_EQ(server.Statusz().stuck_queries, stuck_before + 1);
}

TEST(QueryObservabilityTest, WatchdogIsFalsePositiveFreeOnHealthyLoad) {
  ServerFixture fx;
  uint64_t stuck_before = CounterValue("x3_server_stuck_queries_total");
  X3ServerOptions options;
  options.num_threads = 3;
  options.watchdog_interval_seconds = 0.005;  // tick aggressively
  options.stuck_after_seconds = 30.0;
  options.default_deadline_seconds = 30.0;
  options.stuck_deadline_multiple = 3.0;
  X3Server server(fx.db.get(), options);

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&server, &fx] {
      for (int i = 0; i < 15; ++i) {
        EXPECT_TRUE(server.Execute(fx.Request("healthy")).ok());
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(CounterValue("x3_server_stuck_queries_total"), stuck_before);
}

TEST(QueryObservabilityTest, StatuszAgreesWithQueryLogAndRegistry) {
  ServerFixture fx;
  X3ServerOptions options;
  options.num_threads = 2;
  X3Server server(fx.db.get(), options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(server.Execute(fx.Request("statusz")).ok());
  }

  StatuszReport report = server.Statusz();
  EXPECT_EQ(report.queries_submitted, 10u);
  EXPECT_EQ(report.queries_submitted, server.query_log().total());
  EXPECT_TRUE(report.inflight.empty());  // drained
  EXPECT_EQ(report.shapes.size(), server.num_shapes());
  ASSERT_EQ(report.shapes.size(), 1u);
  EXPECT_GT(report.shapes[0].fact_rows, 0u);
  EXPECT_EQ(report.cache_bytes, server.cache_bytes());
  EXPECT_EQ(report.cache_views, server.cache_views());
  EXPECT_GT(report.uptime_seconds, 0.0);
  EXPECT_EQ(report.num_threads, 2u);
  EXPECT_LE(report.latency_p50_ms, report.latency_p95_ms);
  EXPECT_LE(report.latency_p95_ms, report.latency_p99_ms);
  // Cache outcome counts mirror the registry's counters exactly: the
  // report reads the same Counter objects RunTask increments.
  EXPECT_EQ(report.cache_hits, CounterValue("x3_server_cache_hits_total"));
  EXPECT_EQ(report.cache_misses,
            CounterValue("x3_server_cache_misses_total"));

  // Both renderings carry the load-bearing numbers.
  std::string text = report.ToText();
  EXPECT_NE(text.find("10 submitted"), std::string::npos);
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"queries_submitted\":10"), std::string::npos);
  EXPECT_NE(json.find("\"inflight\":[]"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(QueryObservabilityTest, StatuszSeesInflightQueryWithStage) {
  ServerFixture fx;
  X3ServerOptions options;
  options.num_threads = 1;
  X3Server server(fx.db.get(), options);
  ServerRequest held = fx.Request("held");
  held.debug_hold_seconds = 0.4;
  auto ticket = server.Submit(std::move(held));
  // Poll until the worker picked the query up and reported its stage.
  bool seen = false;
  for (int i = 0; i < 200 && !seen; ++i) {
    StatuszReport report = server.Statusz();
    for (const StatuszQuery& q : report.inflight) {
      if (q.qid == ticket->query_id() &&
          std::string(q.stage) == "debug-hold") {
        EXPECT_EQ(q.tenant, "held");
        EXPECT_GE(q.age_seconds, 0.0);
        seen = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(seen);
  EXPECT_TRUE(ticket->Wait().ok());
  EXPECT_TRUE(server.Statusz().inflight.empty());
}

TEST(QueryObservabilityTest, TraceSpansCarryTheQueryId) {
#if !defined(X3_ENABLE_TRACING)
  GTEST_SKIP() << "trace spans are compiled out (X3_ENABLE_TRACING off)";
#endif
  ServerFixture fx;
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  std::set<uint64_t> submitted;
  {
    X3ServerOptions options;
    options.num_threads = 2;
    X3Server server(fx.db.get(), options);
    for (int i = 0; i < 6; ++i) {
      auto ticket = server.Submit(fx.Request("traced"));
      submitted.insert(ticket->query_id());
      EXPECT_TRUE(ticket->Wait().ok());
    }
  }
  tracer.SetEnabled(false);
  std::set<uint64_t> span_qids;
  bool saw_server_query_span = false;
  for (const Tracer::Event& e : tracer.snapshot()) {
    if (e.qid != 0) span_qids.insert(e.qid);
    if (std::string(e.label) == "server/query" && e.qid != 0) {
      saw_server_query_span = true;
    }
  }
  EXPECT_TRUE(saw_server_query_span);
  // Every qid-stamped span belongs to a submitted query, and every
  // query produced at least its server/query span.
  for (uint64_t qid : span_qids) EXPECT_TRUE(submitted.count(qid)) << qid;
  for (uint64_t qid : submitted) EXPECT_TRUE(span_qids.count(qid)) << qid;
  tracer.Clear();
}

TEST(QueryObservabilityTest, RecordsCarryCacheOutcomeAndStages) {
  ServerFixture fx;
  X3ServerOptions options;
  options.num_threads = 1;
  X3Server server(fx.db.get(), options);
  // First query computes (cold cache), second answers from views.
  EXPECT_TRUE(server.Execute(fx.Request("cold")).ok());
  EXPECT_TRUE(server.Execute(fx.Request("warm")).ok());
  std::vector<QueryLogRecord> records = server.query_log().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].computed);
  EXPECT_FALSE(records[0].stages.empty());
  // The targeted miss built its views from base under "cache-fill".
  EXPECT_EQ(records[0].algorithm_used, CubeAlgorithm::kReference);
  EXPECT_FALSE(records[0].downgraded);
  bool saw_fill = false;
  for (const QueryStageMs& stage : records[0].stages) {
    EXPECT_NE(stage.label, "compute");
    if (stage.label == "cache-fill") {
      saw_fill = true;
      EXPECT_GT(stage.rows, 0u) << "rows = cells built";
    }
  }
  EXPECT_TRUE(saw_fill);
  EXPECT_FALSE(records[1].computed);
  EXPECT_GT(records[1].exact_hits + records[1].rollup_answers, 0u);
}

TEST(QueryObservabilityTest, SlowViewBuiltMissCarriesOneLineSummary) {
  ServerFixture fx;
  X3ServerOptions options;
  options.num_threads = 1;
  options.slow_query_threshold_seconds = 1e-9;  // every query is slow
  X3Server server(fx.db.get(), options);
  EXPECT_TRUE(server.Execute(fx.Request("cold")).ok());
  std::vector<QueryLogRecord> records = server.query_log().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const std::string& explain = records[0].slow_explain;
  EXPECT_TRUE(records[0].slow);
  EXPECT_NE(explain.find("cuboid 0"), std::string::npos) << explain;
  EXPECT_NE(explain.find("facts scanned"), std::string::npos) << explain;
  EXPECT_NE(explain.find("cells built"), std::string::npos) << explain;
  EXPECT_NE(explain.find(" ms"), std::string::npos) << explain;
  EXPECT_EQ(explain.find('\n'), std::string::npos) << explain;
}

}  // namespace
}  // namespace x3
