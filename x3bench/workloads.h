// The x3bench workloads and what they report. Each workload runs in its
// own process (x3bench --workload=<name>); run.py builds the binary and
// starts one process per workload.

#ifndef X3BENCH_WORKLOADS_H_
#define X3BENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace x3bench {

/// The timed phase is cut into this many consecutive chunks of whole
/// rounds (serve_*, ingest_mixed) or whole algorithm cycles (cube_full).
/// Each chunk starts from a set-up of its own and makes the same calls,
/// so chunks differ only by the host; setup_s is the median of the
/// chunks' set-up times. See EndToEnd in x3bench.cc.
constexpr size_t kChunks = 10;
/// Chunks of the traced phase: it replays every layer call, so it runs
/// half as many chunks to keep a traced run short on a slow host.
constexpr size_t kTracedChunks = 5;
/// Fewest timed ops per phase: p99 is taken over all of them and must
/// have at least ten samples beyond it.
constexpr size_t kMinOps = 2000;
/// Timed ops between drains of the tracer ring in the traced phase.
constexpr size_t kDrainEvery = 32;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Sets the amount of timed work (see UnitsFor), so every run of a
  /// seed does identical work and the timed phase lasts about `seconds`
  /// at the workload's nominal rate.
  double seconds = 15;
  /// Adds the traced phase and reports the per-layer metrics.
  bool trace = false;
  /// Where data files and spill files go (the process's $TMPDIR).
  std::string tmp_dir;
  /// Where the Chrome trace and the per-layer table go.
  std::string out_dir;
};

/// End-to-end figures of one timed phase.
struct PhaseFigures {
  /// kChunks, or kTracedChunks in the traced phase.
  size_t chunks = kChunks;
  /// Median of setup_samples_s: one set-up per chunk.
  double setup_s = 0;
  std::vector<double> setup_samples_s;
  Samples latency;
  /// Per sample of `latency`: true for a CommitDocuments batch.
  std::vector<bool> write_op;
  uint64_t attempted = 0;
  /// Ops that returned an error or a wrong answer.
  uint64_t failed = 0;
  double peak_rss_mb = 0;
  double host_probe_before_ms = 0;
  double host_probe_after_ms = 0;
};

/// What a workload hands back to main for printing.
struct RunReport {
  PhaseFigures untraced;
  /// Filled by the traced phase only.
  PhaseFigures traced;
  /// Per-layer metrics (traced runs), in BENCHMARK.json order; metrics a
  /// workload does not exercise are reported as 0 and listed in
  /// `not_exercised`.
  std::vector<Metric> per_layer;
  std::vector<std::string> not_exercised;
  /// Machine-independent counts of the timed phase(s): identical for
  /// every run of one seed.
  std::map<std::string, double> counts;
  SpanLedger ledger;
  /// Failed ops and failed checks, for the run's error lines.
  std::vector<std::string> messages;
  /// Extra lines printed beside the metrics.
  std::vector<std::string> diagnostics;
};

/// serve_warm, serve_cold and ingest_mixed.
bool RunServeWorkload(const RunConfig& config, RunReport* report);
/// cube_full.
bool RunCubeFullWorkload(const RunConfig& config, RunReport* report);

/// The per-layer metric names and units, in reporting order.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog();

/// Sets metric `name` of the catalog in `report->per_layer`.
void SetLayer(RunReport* report, const std::string& name, double value);

/// Units (rounds or cycles of `ops_per_unit` ops) for a timed phase that
/// lasts about config.seconds at `nominal_per_s`: a multiple of kChunks,
/// and at least kMinOps ops.
size_t UnitsFor(const RunConfig& config, double nominal_per_s,
                size_t ops_per_unit);

}  // namespace x3bench

#endif  // X3BENCH_WORKLOADS_H_
