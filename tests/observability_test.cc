// Tests for the observability layer (DESIGN.md §9): the span tracer and
// its Chrome trace_event export, the metric registry and its Prometheus
// text / JSON exporters, the engine metrics recorded by a cube run, the
// determinism of those metrics across identical runs, EXPLAIN ANALYZE
// over every algorithm variant, and the X3_TRACE / X3_METRICS
// environment hooks.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cube/algorithm.h"
#include "gen/workload.h"
#include "storage/temp_file.h"
#include "tests/test_helpers.h"
#include "util/env.h"
#include "util/exec.h"
#include "util/memory_budget.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "x3/engine.h"

namespace x3 {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker: objects, arrays, strings (with escapes),
// numbers, true/false/null. Enough to assert the exporters emit valid
// JSON without depending on an external parser.

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= text_.size()) return false;
          pos_ += 4;
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonValidator(text).Valid();
}

// ---------------------------------------------------------------------------
// Trace-event extraction. The exporter emits one event object per line,
// with fields in a fixed order; this pulls out the pieces the golden
// invariants need (phase, timestamp, thread).

struct ParsedEvent {
  std::string name;
  char phase = '?';
  int64_t ts = 0;
  uint32_t tid = 0;
};

std::vector<ParsedEvent> ParseTraceEvents(const std::string& json) {
  std::vector<ParsedEvent> out;
  size_t start = 0;
  while (start < json.size()) {
    size_t end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    std::string line = json.substr(start, end - start);
    start = end + 1;
    size_t ph = line.find("\"ph\":\"");
    if (ph == std::string::npos) continue;
    ParsedEvent e;
    e.phase = line[ph + 6];
    if (e.phase != 'B' && e.phase != 'E') continue;  // skip metadata
    size_t name_pos = line.find("\"name\":\"");
    size_t name_end = line.find('"', name_pos + 8);
    e.name = line.substr(name_pos + 8, name_end - (name_pos + 8));
    size_t ts_pos = line.find("\"ts\":");
    e.ts = std::atoll(line.c_str() + ts_pos + 5);
    size_t tid_pos = line.find("\"tid\":");
    e.tid = static_cast<uint32_t>(std::atoll(line.c_str() + tid_pos + 6));
    out.push_back(std::move(e));
  }
  return out;
}

/// Asserts the Chrome-trace invariants: every event participates in a
/// matched per-thread B/E pairing (stack discipline, same label) and
/// per-thread timestamps never go backwards.
void CheckTraceInvariants(const std::vector<ParsedEvent>& events) {
  std::map<uint32_t, std::vector<const ParsedEvent*>> open;
  std::map<uint32_t, int64_t> last_ts;
  for (const ParsedEvent& e : events) {
    auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts, it->second) << "timestamps regressed on tid " << e.tid;
    }
    last_ts[e.tid] = e.ts;
    if (e.phase == 'B') {
      open[e.tid].push_back(&e);
    } else {
      ASSERT_FALSE(open[e.tid].empty())
          << "unmatched E for '" << e.name << "' on tid " << e.tid;
      EXPECT_EQ(open[e.tid].back()->name, e.name)
          << "mismatched B/E nesting on tid " << e.tid;
      open[e.tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

// ---------------------------------------------------------------------------
// Tracer basics.

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(16);
  ASSERT_FALSE(tracer.enabled());
  tracer.Begin("a");
  tracer.End("a");
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, RecordsNestedPairsInOrder) {
  Tracer tracer(16);
  tracer.SetEnabled(true);
  tracer.Begin("outer");
  tracer.Begin("inner");
  tracer.End("inner");
  tracer.End("outer");
  std::vector<Tracer::Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].label, "outer");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_STREQ(events[1].label, "inner");
  EXPECT_EQ(events[1].phase, 'B');
  EXPECT_STREQ(events[2].label, "inner");
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_STREQ(events[3].label, "outer");
  EXPECT_EQ(events[3].phase, 'E');
}

TEST(TracerTest, TruncatesLongLabels) {
  Tracer tracer(4);
  tracer.SetEnabled(true);
  std::string longlabel(100, 'x');
  tracer.Begin(longlabel);
  std::vector<Tracer::Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].label), std::string(Tracer::kMaxLabel, 'x'));
}

TEST(TracerTest, RingWrapKeepsNewestAndCountsDropped) {
  Tracer tracer(4);
  tracer.SetEnabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.Begin(std::string("e") + std::to_string(i));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  std::vector<Tracer::Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first snapshot of the newest four events.
  EXPECT_STREQ(events[0].label, "e6");
  EXPECT_STREQ(events[3].label, "e9");
}

TEST(TracerTest, ClearResetsEverything) {
  Tracer tracer(2);
  tracer.SetEnabled(true);
  tracer.SetCurrentThreadName("worker");
  for (int i = 0; i < 5; ++i) tracer.Begin("x");
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.ToChromeTraceJson().find("worker"), std::string::npos);
}

#if defined(X3_ENABLE_TRACING)
TEST(TracerTest, SpanMacroEmitsMatchedPair) {
  Tracer tracer(16);
  tracer.SetEnabled(true);
  {
    X3_TRACE_SPAN(&tracer, "scoped");
  }
  std::vector<Tracer::Event> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_STREQ(events[1].label, "scoped");
}

TEST(TracerTest, SpanMacroToleratesNullAndDisabledTracer) {
  Tracer tracer(16);  // disabled
  {
    X3_TRACE_SPAN(&tracer, "quiet");
    X3_TRACE_SPAN(static_cast<Tracer*>(nullptr), "nowhere");
  }
  EXPECT_EQ(tracer.size(), 0u);
}
#endif  // X3_ENABLE_TRACING

// ---------------------------------------------------------------------------
// Chrome trace export.

TEST(ChromeTraceTest, ExportIsValidJsonWithMatchedPairs) {
  Tracer tracer(64);
  tracer.SetEnabled(true);
  tracer.SetCurrentThreadName("main");
  tracer.Begin("compute");
  tracer.Begin("cuboid/0");
  tracer.End("cuboid/0");
  tracer.End("compute");
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("main"), std::string::npos);
  std::vector<ParsedEvent> events = ParseTraceEvents(json);
  ASSERT_EQ(events.size(), 4u);
  CheckTraceInvariants(events);
}

TEST(ChromeTraceTest, TimestampsAreRebasedToZero) {
  Tracer tracer(16);
  tracer.SetEnabled(true);
  tracer.Begin("a");
  tracer.End("a");
  std::vector<ParsedEvent> events = ParseTraceEvents(tracer.ToChromeTraceJson());
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().ts, 0);
}

TEST(ChromeTraceTest, SynthesizesEndForOpenSpan) {
  Tracer tracer(16);
  tracer.SetEnabled(true);
  tracer.Begin("never-closed");
  tracer.Begin("inner-open");
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  std::vector<ParsedEvent> events = ParseTraceEvents(json);
  ASSERT_EQ(events.size(), 4u);  // 2 B + 2 synthesized E
  CheckTraceInvariants(events);
}

TEST(ChromeTraceTest, DropsOrphanEnd) {
  Tracer tracer(16);
  tracer.SetEnabled(true);
  tracer.End("lost-begin");
  std::vector<ParsedEvent> events = ParseTraceEvents(tracer.ToChromeTraceJson());
  EXPECT_TRUE(events.empty());
}

TEST(ChromeTraceTest, WrappedRingExportStaysBalanced) {
  Tracer tracer(8);
  tracer.SetEnabled(true);
  // 3x the capacity in nested spans: the exporter must repair the
  // orphans the overwrite produced.
  for (int i = 0; i < 12; ++i) {
    tracer.Begin("outer");
    tracer.Begin("inner");
    tracer.End("inner");
    tracer.End("outer");
  }
  EXPECT_GT(tracer.dropped(), 0u);
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  CheckTraceInvariants(ParseTraceEvents(json));
}

TEST(ChromeTraceTest, ConcurrentRecordingKeepsPerThreadInvariants) {
  Tracer tracer(1 << 12);
  tracer.SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      tracer.SetCurrentThreadName("worker-" + std::to_string(t));
      for (int i = 0; i < kSpans; ++i) {
        tracer.Begin("outer");
        tracer.Begin("inner");
        tracer.End("inner");
        tracer.End("outer");
      }
    });
  }
  // Concurrent readers must see consistent snapshots (tsan lane).
  for (int i = 0; i < 10; ++i) {
    EXPECT_LE(tracer.size(), size_t{1} << 12);
    EXPECT_TRUE(IsValidJson(tracer.ToChromeTraceJson()));
  }
  for (std::thread& t : threads) t.join();
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json));
  std::vector<ParsedEvent> events = ParseTraceEvents(json);
  EXPECT_EQ(events.size(), kThreads * kSpans * 4u);
  CheckTraceInvariants(events);
}

// ---------------------------------------------------------------------------
// Metric primitives and the registry.

TEST(MetricsTest, CounterIncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeSetAddAndMax) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.SetMax(5);
  EXPECT_EQ(g.value(), 7);  // not lowered
  g.SetMax(100);
  EXPECT_EQ(g.value(), 100);
}

TEST(MetricsTest, HistogramBucketsAreCumulative) {
  Histogram h;
  h.Observe(0.5e-6);  // first bucket (<= 1e-6)
  h.Observe(2e-6);    // second bucket (<= 4e-6)
  h.Observe(1e9);     // +Inf bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(Histogram::kNumBuckets - 1), 3u);
  EXPECT_GT(h.sum(), 0.0);
  // Bounds grow 4x and end at +Inf.
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 4e-6);
  EXPECT_TRUE(std::isinf(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(Histogram::kNumBuckets - 1), 0u);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter* a = reg.GetCounter("x3_test_stable_total", "test counter");
  Counter* b = reg.GetCounter("x3_test_stable_total", "test counter");
  EXPECT_EQ(a, b);
  Gauge* g = reg.GetGauge("x3_test_stable_gauge", "test gauge");
  EXPECT_NE(g, nullptr);
}

TEST(MetricsTest, ValidMetricNameCharset) {
  EXPECT_TRUE(internal::ValidMetricName("x3_env_reads_total"));
  EXPECT_TRUE(internal::ValidMetricName("_leading_underscore"));
  EXPECT_TRUE(internal::ValidMetricName("ns:name"));
  EXPECT_FALSE(internal::ValidMetricName(""));
  EXPECT_FALSE(internal::ValidMetricName("9starts_with_digit"));
  EXPECT_FALSE(internal::ValidMetricName("has-dash"));
  EXPECT_FALSE(internal::ValidMetricName("has space"));
  EXPECT_FALSE(internal::ValidMetricName("unicode_µ"));
}

/// Counts non-overlapping occurrences of `needle` in `hay`.
size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(MetricsTest, PrometheusTextIsWellFormed) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.GetCounter("x3_test_prom_total", "a counter")->Increment(7);
  reg.GetGauge("x3_test_prom_gauge", "a gauge")->Set(-3);
  reg.GetHistogram("x3_test_prom_seconds", "a histogram")->Observe(0.001);
  std::string text = reg.ToPrometheusText();

  // Exactly one HELP and one TYPE line per metric.
  for (const char* name :
       {"x3_test_prom_total", "x3_test_prom_gauge", "x3_test_prom_seconds"}) {
    EXPECT_EQ(CountOccurrences(text, std::string("# HELP ") + name + " "), 1u)
        << name;
    EXPECT_EQ(CountOccurrences(text, std::string("# TYPE ") + name + " "), 1u)
        << name;
  }
  EXPECT_NE(text.find("# TYPE x3_test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE x3_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE x3_test_prom_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("x3_test_prom_total 7"), std::string::npos);
  EXPECT_NE(text.find("x3_test_prom_gauge -3"), std::string::npos);
  // Histogram exposition: every bucket, the +Inf bound, _sum and _count.
  EXPECT_EQ(CountOccurrences(text, "x3_test_prom_seconds_bucket{le="),
            Histogram::kNumBuckets);
  EXPECT_NE(text.find("x3_test_prom_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("x3_test_prom_seconds_sum "), std::string::npos);
  EXPECT_NE(text.find("x3_test_prom_seconds_count 1"), std::string::npos);

  // Every exposed metric name obeys the Prometheus charset.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_TRUE(internal::ValidMetricName(name)) << "bad name: " << name;
  }
}

TEST(MetricsTest, JsonExportIsValidJson) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.GetCounter("x3_test_json_total", "counter")->Increment();
  reg.GetHistogram("x3_test_json_seconds", "histogram")->Observe(0.5);
  std::string json = reg.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(MetricsTest, SnapshotAndResetKeepPointersValid) {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter* c = reg.GetCounter("x3_test_reset_total", "counter");
  c->Increment(5);
  std::map<std::string, int64_t> snap = reg.SnapshotValues();
  EXPECT_EQ(snap.at("x3_test_reset_total"), 5);
  reg.ResetAllForTest();
  EXPECT_EQ(c->value(), 0u);           // same object, zeroed
  c->Increment(2);                     // cached pointer still live
  EXPECT_EQ(reg.SnapshotValues().at("x3_test_reset_total"), 2);
}

TEST(MetricsTest, ConcurrentIncrementsDoNotLoseUpdates) {
  Counter* c = MetricRegistry::Global().GetCounter(
      "x3_test_concurrent_total", "hammered by threads");
  c->Reset();
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kIncrements);
}

// ---------------------------------------------------------------------------
// Engine metrics: a cube run populates the process-wide registry, and
// identical sequential runs produce identical (non-timing) values.

TEST(EngineMetricsTest, CubeRunPopulatesEngineMetrics) {
  auto workload = BuildDblpWorkload(200);
  ASSERT_TRUE(workload.ok()) << workload.status();
  MetricRegistry& reg = MetricRegistry::Global();
  reg.ResetAllForTest();

  CubeComputeOptions options;
  options.properties = &workload->properties;
  auto cube = ComputeCube(CubeAlgorithm::kTD, workload->facts,
                          workload->lattice, options);
  ASSERT_TRUE(cube.ok()) << cube.status();

  std::map<std::string, int64_t> snap = reg.SnapshotValues();
  EXPECT_EQ(snap.at("x3_cube_computations_total"), 1);
  EXPECT_EQ(snap.at("x3_cube_result_cells_total"),
            static_cast<int64_t>(cube->TotalCells()));
  EXPECT_GT(snap.at("x3_cube_plan_tasks_total"), 0);
}

TEST(EngineMetricsTest, SpillingRunCountsSorterAndEnvTraffic) {
  auto workload = BuildDblpWorkload(400);
  ASSERT_TRUE(workload.ok()) << workload.status();
  MetricRegistry& reg = MetricRegistry::Global();
  reg.ResetAllForTest();

  // A budget far below the fact table forces external sorts to spill,
  // which drives the sorter and Env counters.
  TempFileManager temp;
  MemoryBudget budget(workload->facts.ApproxBytes() / 4);
  ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
  CubeComputeOptions options;
  options.properties = &workload->properties;
  options.exec = &ctx;
  auto cube = ComputeCube(CubeAlgorithm::kTD, workload->facts,
                          workload->lattice, options);
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_EQ(budget.used(), 0u);

  std::map<std::string, int64_t> snap = reg.SnapshotValues();
  EXPECT_GT(snap.at("x3_sort_runs_spilled_total"), 0);
  EXPECT_GT(snap.at("x3_sort_spill_bytes_total"), 0);
  EXPECT_GT(snap.at("x3_env_writes_total"), 0);
  EXPECT_GT(snap.at("x3_env_reads_total"), 0);
  EXPECT_GT(snap.at("x3_memory_peak_bytes"), 0);
}

TEST(EngineMetricsTest, MetricsAreDeterministicAcrossIdenticalRuns) {
  auto workload = BuildDblpWorkload(300);
  ASSERT_TRUE(workload.ok()) << workload.status();

  // One full sequential run; returns every non-timing metric value.
  auto run = [&]() -> std::map<std::string, int64_t> {
    MetricRegistry::Global().ResetAllForTest();
    TempFileManager temp;
    MemoryBudget budget(workload->facts.ApproxBytes() / 4);
    ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
    CubeComputeOptions options;
    options.properties = &workload->properties;
    options.exec = &ctx;
    auto cube = ComputeCube(CubeAlgorithm::kTDOpt, workload->facts,
                            workload->lattice, options);
    X3_CHECK(cube.ok()) << cube.status();
    X3_CHECK(budget.used() == 0) << "leaked budget";
    std::map<std::string, int64_t> snap =
        MetricRegistry::Global().SnapshotValues();
    // Drop time-valued metrics: their counts and sums are the only
    // nondeterministic values by design (DESIGN.md §9).
    for (auto it = snap.begin(); it != snap.end();) {
      if (it->first.find("_seconds") != std::string::npos) {
        it = snap.erase(it);
      } else {
        ++it;
      }
    }
    return snap;
  };

  std::map<std::string, int64_t> first = run();
  std::map<std::string, int64_t> second = run();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE.

TEST(ExplainAnalyzeTest, RendersActualsForEveryAlgorithmVariant) {
  auto workload = BuildDblpWorkload(200);
  ASSERT_TRUE(workload.ok()) << workload.status();
  for (CubeAlgorithm algo : kAllCubeAlgorithms) {
    SCOPED_TRACE(CubeAlgorithmToString(algo));
    CubeComputeOptions options;
    options.properties = &workload->properties;
    auto text = ExplainAnalyzeCube(algo, workload->facts, workload->lattice,
                                   options);
    ASSERT_TRUE(text.ok()) << text.status();
    // Header carries the run-wide actuals...
    EXPECT_NE(text->find("compute "), std::string::npos) << *text;
    EXPECT_NE(text->find(" cells"), std::string::npos) << *text;
    // ...and every step line carries its own annotation (all forms
    // include a row count; most include "actual <ms>").
    size_t steps = 0;
    size_t start = 0;
    while (start < text->size()) {
      size_t end = text->find('\n', start);
      if (end == std::string::npos) end = text->size();
      std::string line = text->substr(start, end - start);
      start = end + 1;
      if (line.find("<- ") == std::string::npos) continue;  // not a step
      ++steps;
      EXPECT_NE(line.find("rows "), std::string::npos)
          << "unannotated step: " << line;
    }
    EXPECT_EQ(steps, workload->lattice.num_cuboids())
        << "every cuboid should appear as an annotated step";
  }
}

TEST(ExplainAnalyzeTest, EngineExplainAnalyzeRendersPlan) {
  auto db = testutil::OpenDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->LoadXmlString(R"(
      <corpus>
        <doc><word>apple</word></doc>
        <doc><word>apricot</word></doc>
        <doc><word>banana</word></doc>
      </corpus>)")
                  .ok());
  X3Engine engine(db.get());
  auto text = engine.ExplainAnalyze(
      "for $d in doc(\"c\")//doc, $w in $d/word "
      "x3 $d by substring($w, 1, 1) (LND) return COUNT($d)",
      CubeAlgorithm::kReference);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("REFERENCE"), std::string::npos) << *text;
  EXPECT_NE(text->find("actual "), std::string::npos) << *text;
  EXPECT_NE(text->find("rows "), std::string::npos) << *text;
}

// ---------------------------------------------------------------------------
// X3_TRACE / X3_METRICS environment hooks (driven directly; at process
// startup the same functions run from a static initializer).

TEST(EnvHookTest, TraceEnvVarEnablesAndFlushes) {
  std::string path = testing::TempDir() + "/x3_trace_hook.json";
  ASSERT_EQ(setenv("X3_TRACE", path.c_str(), 1), 0);
  Tracer::Global().Clear();
  EXPECT_TRUE(internal::InitTraceFromEnv());
  EXPECT_TRUE(Tracer::Global().enabled());
  Tracer::Global().Begin("hooked");
  Tracer::Global().End("hooked");
  internal::FlushTraceAtExit();
  Tracer::Global().SetEnabled(false);
  ASSERT_EQ(unsetenv("X3_TRACE"), 0);

  std::string json;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &json).ok());
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("hooked"), std::string::npos);
}

TEST(EnvHookTest, MetricsEnvVarFlushesPrometheusText) {
  std::string path = testing::TempDir() + "/x3_metrics_hook.txt";
  ASSERT_EQ(setenv("X3_METRICS", path.c_str(), 1), 0);
  MetricRegistry::Global().GetCounter("x3_test_hook_total", "hook test")
      ->Increment();
  EXPECT_TRUE(internal::InitMetricsFromEnv());
  internal::FlushMetricsAtExit();
  ASSERT_EQ(unsetenv("X3_METRICS"), 0);

  std::string text;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &text).ok());
  EXPECT_NE(text.find("# HELP x3_test_hook_total"), std::string::npos);
  EXPECT_NE(text.find("x3_test_hook_total 1"), std::string::npos);
}

TEST(EnvHookTest, UnsetEnvVarsAreIgnored) {
  ASSERT_EQ(unsetenv("X3_TRACE"), 0);
  ASSERT_EQ(unsetenv("X3_METRICS"), 0);
  EXPECT_FALSE(internal::InitTraceFromEnv());
  EXPECT_FALSE(internal::InitMetricsFromEnv());
}

}  // namespace
}  // namespace x3
