// x3bench: runs one workload of the X3 benchmark in this process and
// prints its metrics. run.py builds this binary and starts one process
// per workload; see NOTES.md for the workloads and metrics.
//
//   x3bench --workload=serve_warm --seed=1 --seconds=15 --trace=0
//           --tmp-dir=DIR --out-dir=DIR
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). Exit code 0 when every output was correct, 2 when one
// was wrong, 1 on a usage or set-up error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cube/algorithm.h"
#include "util/logging.h"
#include "workloads.h"

namespace x3bench {

namespace {

struct LayerInfo {
  std::string name;
  std::string unit;
  std::string moves;  // the end-to-end metric and workload it should move
};

std::vector<LayerInfo> BuildCatalog() {
  const std::string warm_p50 = "latency_p50_ms / serve_warm";
  const std::string warm_tail = "latency_p50_ms, latency_p99_ms / serve_warm";
  const std::string cold_tput = "throughput_per_s / serve_cold";
  const std::string ingest = "throughput_per_s / ingest_mixed";
  const std::string full = "throughput_per_s, latency_p99_ms / cube_full";
  std::vector<LayerInfo> c = {
      {"server.residual_ms", "ms/op", warm_p50},
      {"server.queue_wait_us", "us/op", warm_p50},
      {"server.exact_hits_per_query", "count", warm_tail},
      {"server.rollups_per_query", "count", warm_tail},
      {"server.misses_per_query", "count", cold_tput},
      {"server.evictions_per_query", "count", cold_tput},
      {"server.downgrades_per_query", "count", cold_tput},
      {"server.cache_fills_per_miss", "count", cold_tput},
      {"server.commit_p50_ms", "ms", ingest},
      {"server.commit_p90_ms", "ms", ingest},
      {"server.allocs_per_query", "count",
       "throughput_per_s / serve_warm, serve_cold"},
      {"server.allocs_per_commit", "count", ingest},
      {"x3.compile_us", "us/op", warm_p50},
      {"x3.prepare_ms", "ms/shape", "setup_s / serve_*, ingest_mixed"},
      {"xml.parse_mb_per_s", "MB/s",
       "setup_s; throughput_per_s / ingest_mixed"},
      {"xdb.load_mb_per_s", "MB/s", "setup_s"},
      {"cube.fact_kb", "KB", "peak_rss_mb"},
      {"cube.answer_from_views_ms", "ms/op", warm_tail},
      {"cube.factset_unions_per_query", "count", warm_p50},
      {"cube.compute_ms_per_miss", "ms", cold_tput},
      {"cube.fill_ms_per_miss", "ms", cold_tput},
      {"cube.cells_computed_per_miss", "count", cold_tput},
      {"cube.answer_cell_yield", "ratio", cold_tput},
  };
  using A = x3::CubeAlgorithm;
  for (A a : {A::kReference, A::kCounter, A::kBUC, A::kBUCOpt, A::kBUCCust,
              A::kTD, A::kTDOpt, A::kTDOptAll, A::kTDCust}) {
    c.push_back({std::string("cube.fig8.") + x3::CubeAlgorithmToString(a) +
                     "_ms",
                 "ms", full});
  }
  for (A a : {A::kReference, A::kCounter, A::kBUC, A::kBUCCust, A::kTD,
              A::kTDCust}) {
    c.push_back({std::string("cube.fig9.") + x3::CubeAlgorithmToString(a) +
                     "_ms",
                 "ms", full});
  }
  std::vector<LayerInfo> tail = {
      {"cube.allocs_per_compute", "count", "throughput_per_s / cube_full"},
      {"cube.delta_views_patched_per_commit", "count", ingest},
      {"cube.delta_views_recomputed_per_commit", "count", ingest},
      {"cube.delta_cells_touched_per_commit", "count", ingest},
      {"storage.spill_kb_per_compute", "KB", full},
      {"storage.runs_spilled_per_compute", "count", full},
      {"storage.merge_passes_per_compute", "count", full},
      {"storage.wal_kb_per_commit", "KB", ingest},
      {"storage.syncs_per_commit", "count", ingest},
      {"storage.pool_hit_ratio", "ratio",
       "setup_s; throughput_per_s / ingest_mixed"},
      {"util.budget_peak_kb", "KB", "peak_rss_mb / cube_full, serve_cold"},
  };
  c.insert(c.end(), tail.begin(), tail.end());
  return c;
}

const std::vector<LayerInfo>& Catalog() {
  static const std::vector<LayerInfo>* catalog =
      new std::vector<LayerInfo>(BuildCatalog());
  return *catalog;
}

const char* kWorkloads[] = {"serve_warm", "serve_cold", "ingest_mixed",
                            "cube_full"};

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string key = arg;
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") {
      config->workload = value;
    } else if (key == "--seed") {
      config->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config->trace = value == "1";
    } else if (key == "--tmp-dir") {
      config->tmp_dir = value;
    } else if (key == "--out-dir") {
      config->out_dir = value;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || config->workload == w;
  return known && config->seconds > 0 && !config->tmp_dir.empty() &&
         !config->out_dir.empty();
}

/// The end-to-end figures of one timed phase. The phase is cut into
/// chunks, each on its own set-up, that make the same calls. Throughput
/// and p50 are the medians of the per-chunk figures (ten per run): the
/// host slows unevenly, by a third or more for seconds at a time, and a
/// median lets the chunks it spares outvote the ones it hits without
/// always picking the fastest. p99 is taken over the samples of all
/// chunks pooled (a chunk alone has too few samples for ten beyond its
/// p99).
struct Figures {
  std::vector<Metric> metrics;
  std::vector<double> chunk_throughput;
  std::vector<double> chunk_p50;
};

Figures EndToEnd(const PhaseFigures& f) {
  const Samples& all = f.latency;
  size_t n = all.size();
  Figures out;
  for (size_t c = 0; c < f.chunks; ++c) {
    Samples chunk = all.Slice(c * n / f.chunks, (c + 1) * n / f.chunks);
    out.chunk_throughput.push_back(static_cast<double>(chunk.size()) /
                                   chunk.Sum() * 1e3);
    out.chunk_p50.push_back(chunk.Quantile(0.50));
  }
  out.metrics = {
      {"setup_s", "s", f.setup_s},
      {"throughput_per_s", "ops/s", Median(out.chunk_throughput)},
      {"latency_p50_ms", "ms", Median(out.chunk_p50)},
      {"latency_p99_ms", "ms", all.Quantile(0.99)},
      {"peak_rss_mb", "MB", f.peak_rss_mb},
  };
  return out;
}

double ErrorRate(const PhaseFigures& f) {
  return f.attempted > 0
             ? static_cast<double>(f.failed) / static_cast<double>(f.attempted)
             : 1;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// The traced run's report: per-layer metrics, span self time per op
/// and the tracing overhead. Printed, and written to
/// <out-dir>/<workload>.layers.txt.
std::string LayerReport(const RunConfig& config, const RunReport& report) {
  std::ostringstream out;
  std::set<std::string> skipped(report.not_exercised.begin(),
                                report.not_exercised.end());
  out << "per-layer metrics, " << config.workload << " seed " << config.seed
      << " (traced run)\n";
  for (const LayerInfo& info : Catalog()) {
    double value = 0;
    for (const Metric& m : report.per_layer) {
      if (m.name == info.name) value = m.value;
    }
    char line[256];
    if (skipped.count(info.name) > 0) {
      std::snprintf(line, sizeof(line), "  %-40s %14s %-8s  %s\n",
                    info.name.c_str(), "n/a", info.unit.c_str(),
                    "not exercised by this workload");
    } else {
      std::snprintf(line, sizeof(line), "  %-40s %14.6g %-8s  moves %s\n",
                    info.name.c_str(), value, info.unit.c_str(),
                    info.moves.c_str());
    }
    out << line;
  }
  double ops =
      static_cast<double>(std::max<uint64_t>(report.traced.attempted, 1));
  out << "span self time per timed op (traced phase). \"x3bench/<call> > "
         "<span>\" is a program span inside that benchmark call on the "
         "client thread (under x3bench/replay/ it is a replay, not served "
         "work); a bare program span ran on another thread (the server "
         "worker)\n";
  char header[160];
  std::snprintf(header, sizeof(header), "  %-40s %10s %12s %12s\n", "span",
                "count", "self_ms/op", "total_ms/op");
  out << header;
  for (const auto& [label, row] : report.ledger.rows()) {
    char line[200];
    std::snprintf(line, sizeof(line), "  %-40s %10llu %12.5f %12.5f\n",
                  label.c_str(), static_cast<unsigned long long>(row.count),
                  row.self_ms / ops, row.total_ms / ops);
    out << line;
  }
  std::vector<Metric> a = EndToEnd(report.untraced).metrics;
  std::vector<Metric> b = EndToEnd(report.traced).metrics;
  out << "tracing overhead (traced minus untraced phase):";
  for (size_t i = 0; i < a.size(); ++i) {
    double delta = b[i].value - a[i].value;
    out << " " << a[i].name << "=" << Fmt("%+.4g", delta) << a[i].unit << " ("
        << Fmt("%+.1f", a[i].value != 0 ? delta / a[i].value * 100 : 0)
        << "%)";
  }
  out << " error_rate=" << Fmt("%+.4g", ErrorRate(report.traced) -
                                            ErrorRate(report.untraced))
      << "\n";
  return out.str();
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog() {
  static const auto* names = [] {
    auto* v = new std::vector<std::pair<std::string, std::string>>();
    for (const LayerInfo& info : Catalog()) {
      v->emplace_back(info.name, info.unit);
    }
    return v;
  }();
  return *names;
}

void SetLayer(RunReport* report, const std::string& name, double value) {
  for (Metric& m : report->per_layer) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  for (const auto& [catalog_name, unit] : PerLayerCatalog()) {
    if (catalog_name == name) {
      report->per_layer.push_back({name, unit, value});
      return;
    }
  }
  std::fprintf(stderr, "x3bench: per-layer metric %s is not in the catalog\n",
               name.c_str());
  std::abort();
}

size_t UnitsFor(const RunConfig& config, double nominal_per_s,
                size_t ops_per_unit) {
  double units =
      nominal_per_s * config.seconds / static_cast<double>(ops_per_unit);
  size_t min_units = (kMinOps + ops_per_unit - 1) / ops_per_unit;
  size_t chunks = std::max<size_t>(
      static_cast<size_t>(std::llround(units / kChunks)),
      (min_units + kChunks - 1) / kChunks);
  return std::max<size_t>(chunks, 1) * kChunks;
}

}  // namespace x3bench

int main(int argc, char** argv) {
  using namespace x3bench;
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: x3bench --workload=serve_warm|serve_cold|"
                 "ingest_mixed|cube_full --seed=N --seconds=S --trace=0|1 "
                 "--tmp-dir=DIR --out-dir=DIR\n");
    return 1;
  }
  // The COUNTER fallback warns on every computation whose single cuboid
  // exceeds the budget; the benchmark checks outputs itself.
  x3::SetLogLevel(x3::LogLevel::kError);
  RunReport report;
  bool ok = config.workload == "cube_full"
                ? RunCubeFullWorkload(config, &report)
                : RunServeWorkload(config, &report);
  for (const std::string& m : report.messages) {
    std::printf("error: %s\n", m.c_str());
  }
  const PhaseFigures& f = report.untraced;
  if (f.attempted == 0) {
    std::fprintf(stderr, "x3bench: %s did not reach its timed phase\n",
                 config.workload.c_str());
    return 1;
  }
  if (f.latency.size() < kMinOps) {
    std::fprintf(stderr, "x3bench: too few samples for p99\n");
    return 1;
  }

  std::printf("workload %s seed %llu: %zu ops, %llu failed\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), f.latency.size(),
              static_cast<unsigned long long>(f.failed));
  std::printf("host_probe_ms before=%.2f after=%.2f (fixed integer loop; "
              "diagnostic only)\n",
              f.host_probe_before_ms, f.host_probe_after_ms);
  Figures figures = EndToEnd(f);
  std::vector<Metric> e2e = figures.metrics;
  std::printf("chunk throughput (ops/s):");
  for (double t : figures.chunk_throughput) std::printf(" %.1f", t);
  std::printf("\nchunk p50 (ms):");
  for (double t : figures.chunk_p50) std::printf(" %.4f", t);
  std::printf("\nset-ups (s):");
  for (double t : f.setup_samples_s) std::printf(" %.4f", t);
  // Which kind of op the pooled p99 falls on.
  double p99 = e2e[3].value;
  size_t tail_reads = 0;
  size_t tail_writes = 0;
  for (size_t i = 0; i < f.latency.size(); ++i) {
    if (f.latency.at(i) < p99) continue;
    ++(f.write_op[i] ? tail_writes : tail_reads);
  }
  std::printf("\nsamples at or above p99: %zu reads or computations, %zu "
              "commits\n",
              tail_reads, tail_writes);
  for (const std::string& line : report.diagnostics) {
    std::printf("%s\n", line.c_str());
  }
  for (const Metric& m : e2e) {
    std::printf("  %-18s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-18s %14.6g %s\n", "error_rate", ErrorRate(f), "ratio");

  std::string counts = "{";
  for (const auto& [name, value] : report.counts) {
    counts += (counts.size() > 1 ? ", \"" : "\"") + JsonEscape(name) +
              "\": " + Fmt("%.17g", value);
  }
  std::printf("counts %s}\n", counts.c_str());

  uint64_t attempted = f.attempted;
  uint64_t failed = f.failed;
  std::vector<Metric> metrics = e2e;
  if (config.trace) {
    attempted += report.traced.attempted;
    failed += report.traced.failed;
    // The result carries every per_layer metric of BENCHMARK.json, as its
    // format requires; the ones this workload does not exercise read 0
    // and are marked n/a in the layer report.
    std::vector<Metric> layers;
    for (const auto& [name, unit] : PerLayerCatalog()) {
      auto it = std::find_if(report.per_layer.begin(), report.per_layer.end(),
                             [&](const Metric& m) { return m.name == name; });
      if (it == report.per_layer.end()) {
        report.not_exercised.push_back(name);
        layers.push_back({name, unit, 0});
      } else {
        layers.push_back(*it);
      }
    }
    metrics = layers;
    std::string text = LayerReport(config, report);
    std::fputs(text.c_str(), stdout);
    std::ofstream file(config.out_dir + "/" + config.workload + ".layers.txt");
    file << text;
    std::printf("chrome trace: %s/%s.trace.json\n", config.out_dir.c_str(),
                config.workload.c_str());
  }
  bool correct = ok && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(correct ? failed
                                                      : std::max<uint64_t>(
                                                            failed, 1)),
              MetricsJson(metrics).c_str());
  return correct ? 0 : 2;
}
