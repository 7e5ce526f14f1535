// Measurement plumbing shared by the x3bench workloads: raw latency
// samples, registry-counter deltas over chosen windows, the heap
// allocation counter, the host-speed probe, span accounting from the
// global tracer, and the result printer.
//
// Everything here observes X3 from outside: through the metric
// registry and the tracer the library already has, and through timing
// taken around public calls on the client side.

#ifndef X3BENCH_HARNESS_H_
#define X3BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace x3bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Heap allocations made through global operator new while counting is
/// on (the replacement lives in harness.cc). Counting is off except in
/// the traced phase, where it costs one relaxed increment per call.
extern std::atomic<bool> g_count_allocs;
extern std::atomic<uint64_t> g_allocs;

inline uint64_t AllocCount() {
  return g_allocs.load(std::memory_order_relaxed);
}

/// Raw per-op latency samples in milliseconds.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  size_t size() const { return ms_.size(); }
  double at(size_t i) const { return ms_[i]; }
  double Sum() const;
  /// Nearest-rank quantile of the raw samples (no interpolation, no
  /// buckets). Requires a non-empty sample.
  double Quantile(double q) const;
  /// Samples [begin, end) in op order.
  Samples Slice(size_t begin, size_t end) const;

 private:
  std::vector<double> ms_;
};

/// Median of a small vector (copy).
double Median(std::vector<double> values);

/// `v` with three decimals, for diagnostic lines.
std::string Fixed(double v);

/// Switches the global tracer off for a scope of benchmark work (set-ups,
/// reference rebuilds, output checks), so the program spans opened there
/// never reach the per-layer ledger; restores the previous state.
class TracerPause {
 public:
  TracerPause() : was_enabled_(x3::Tracer::Global().enabled()) {
    x3::Tracer::Global().SetEnabled(false);
  }
  ~TracerPause() { x3::Tracer::Global().SetEnabled(was_enabled_); }
  TracerPause(const TracerPause&) = delete;
  TracerPause& operator=(const TracerPause&) = delete;

 private:
  bool was_enabled_;
};

/// The registry values the benchmark reads, by short name. Counters are
/// looked up once; Read() takes a snapshot of all of them.
class RegistryProbe {
 public:
  RegistryProbe();
  /// Snapshot indexed like names().
  std::vector<double> Read() const;
  const std::vector<std::string>& names() const { return names_; }
  size_t Index(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<x3::Counter*> counters_;
  std::vector<x3::Gauge*> gauges_;
  x3::Histogram* queue_wait_ = nullptr;
};

/// Accumulates registry deltas over the windows the benchmark brackets
/// (one op, one setup), so benchmark-side work between windows (reference
/// answers, output checks, replays) never lands in a program count.
class DeltaMeter {
 public:
  explicit DeltaMeter(const RegistryProbe* probe)
      : probe_(probe), total_(probe->names().size(), 0.0) {}
  void Begin() { before_ = probe_->Read(); }
  void End();
  double Get(const std::string& name) const {
    return total_[probe_->Index(name)];
  }

 private:
  const RegistryProbe* probe_;
  std::vector<double> before_;
  std::vector<double> total_;
};

/// Fixed-work integer loop, timed. A diagnostic of host speed printed
/// beside the metrics; never used to scale any reported number.
double HostProbeMs();

/// The workload process's peak resident set (VmHWM), in MB.
double PeakRssMb();

/// Span accounting over the global tracer's events. The traced phase
/// drains the ring every kDrainEvery ops, outside the timed intervals, so
/// a long run never overflows it. Self time of a span is its duration
/// minus its direct children's durations on the same thread. Numeric
/// label suffixes ("cuboid/7", "pass/2") are folded to "cuboid/#".
///
/// A row is keyed by its label and, for a program span, by the nearest
/// enclosing x3bench/ span on its thread: "x3bench/replay/compute >
/// compute" is the benchmark's replay on the client thread, while a bare
/// "compute" is the program's own work (the server worker's, in the
/// serving workloads). Open spans carry over from one drain to the next.
class SpanLedger {
 public:
  struct Row {
    uint64_t count = 0;
    double self_ms = 0;
    double total_ms = 0;
  };
  /// Folds the tracer's current events into the ledger and clears it.
  /// The first drain of the run also writes them as a Chrome trace to
  /// `trace_path` (when non-empty), so the file holds the run's opening
  /// ops with both program spans and benchmark spans.
  void Drain(const std::string& trace_path);
  const std::map<std::string, Row>& rows() const { return rows_; }

 private:
  struct Open {
    std::string key;
    /// The nearest x3bench/ label at or above this span ("" if none).
    std::string scope;
    int64_t begin_us;
    int64_t child_us;
  };
  std::map<std::string, Row> rows_;
  std::map<uint32_t, std::vector<Open>> stacks_;
  bool trace_written_ = false;
};

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The JSON fragment {"name": {"value": v, "unit": u}, ...}.
std::string MetricsJson(const std::vector<Metric>& metrics);

/// JSON string escaping for labels and messages.
std::string JsonEscape(const std::string& s);

}  // namespace x3bench

#endif  // X3BENCH_HARNESS_H_
