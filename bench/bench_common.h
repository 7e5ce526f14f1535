#ifndef X3_BENCH_BENCH_COMMON_H_
#define X3_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cube/algorithm.h"
#include "gen/workload.h"
#include "storage/temp_file.h"
#include "util/env.h"
#include "util/exec.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace x3 {
namespace bench {

/// Tree count for a figure: the paper's count scaled down by default
/// (our substrate is a simulator, shapes are the target), overridable
/// with X3_BENCH_TREES=<n>.
inline size_t TreesFor(size_t default_trees) {
  const char* env = std::getenv("X3_BENCH_TREES");
  if (env != nullptr) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return default_trees;
}

/// Workloads are expensive to build; cache them per setting across
/// benchmark registrations (benchmarks must not time generation).
inline const Workload& CachedTreebankWorkload(
    const ExperimentSetting& setting) {
  static std::map<std::string, std::unique_ptr<Workload>>* cache =
      new std::map<std::string, std::unique_ptr<Workload>>();
  std::string key = StringPrintf(
      "c%d-d%d-dense%d-a%zu-n%zu-s%llu", setting.coverage_holds ? 1 : 0,
      setting.disjointness_holds ? 1 : 0, setting.dense ? 1 : 0,
      setting.num_axes, setting.num_trees,
      static_cast<unsigned long long>(setting.seed));
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto workload = BuildTreebankWorkload(setting);
    X3_CHECK(workload.ok()) << workload.status();
    it = cache->emplace(key, std::make_unique<Workload>(std::move(*workload)))
             .first;
  }
  return *it->second;
}

inline const Workload& CachedDblpWorkload(size_t articles) {
  static std::map<size_t, std::unique_ptr<Workload>>* cache =
      new std::map<size_t, std::unique_ptr<Workload>>();
  auto it = cache->find(articles);
  if (it == cache->end()) {
    auto workload = BuildDblpWorkload(articles);
    X3_CHECK(workload.ok()) << workload.status();
    it = cache->emplace(articles,
                        std::make_unique<Workload>(std::move(*workload)))
             .first;
  }
  return *it->second;
}

/// Runs one (algorithm, workload) cube computation per iteration, with
/// a working-memory budget proportional to the fact table (the paper's
/// crossovers are functions of the data:memory ratio). Reports the
/// paper-relevant counters. `parallelism` feeds the executor's worker
/// count (1 = the sequential baseline; results are cell-identical at
/// every level, so the timings are comparable).
inline void RunCubeBenchmark(benchmark::State& state, CubeAlgorithm algo,
                             const Workload& workload,
                             size_t parallelism = 1) {
  // The paper's machine fit roughly twice the base data in memory
  // (1 GB RAM, 576 MB loaded Treebank). Scale the budget with the fact
  // table the same way so crossovers land where theirs did: COUNTER is
  // fine until its counters outgrow this, TD spills when a sort does.
  // X3_BENCH_BUDGET_FACTOR overrides the data:memory ratio — the perf
  // capture (scripts/bench_capture.py) runs a constrained configuration
  // (factor < 1) so the spill path is actually exercised and its byte
  // counts land in BENCH_1.json.
  double budget_factor = 2.0;
  if (const char* env = std::getenv("X3_BENCH_BUDGET_FACTOR")) {
    double v = std::atof(env);
    if (v > 0) budget_factor = v;
  }
  size_t budget_bytes = std::max<size_t>(
      static_cast<size_t>(
          static_cast<double>(workload.facts.ApproxBytes()) * budget_factor),
      64 * 1024);
  // Cost counts of the last iteration's computation.
  uint64_t passes = 0;
  uint64_t sorts = 0;
  uint64_t spill_bytes = 0;
  uint64_t rollups = 0;
  uint64_t cells = 0;
  size_t peak_bytes = 0;
  double plan_ms = 0;
  double cuboid_ms = 0;
  double pipe_ms = 0;
  double pass_ms = 0;
  for (auto _ : state) {
    TempFileManager temp;
    MemoryBudget budget(budget_bytes);
    ExecutionContext ctx(
        ExecutionContext::Options{&budget, &temp, nullptr, std::nullopt});
    CubeComputeOptions options;
    options.aggregate = AggregateFunction::kCount;
    options.properties = &workload.properties;
    options.exec = &ctx;
    options.parallelism = parallelism;
    auto cube = ComputeCube(algo, workload.facts, workload.lattice, options);
    X3_CHECK(cube.ok()) << cube.status();
    passes = ctx.costs().passes.value();
    sorts = ctx.costs().sorts.value();
    spill_bytes = ctx.costs().spill_bytes.value();
    rollups = ctx.costs().rollups.value();
    cells = cube->TotalCells();
    peak_bytes = budget.peak();
    benchmark::DoNotOptimize(cells);
    plan_ms = ctx.stats()->TotalSeconds("plan") * 1e3;
    cuboid_ms = ctx.stats()->TotalSeconds("cuboid") * 1e3;
    pipe_ms = ctx.stats()->TotalSeconds("pipe") * 1e3;
    pass_ms = ctx.stats()->TotalSeconds("pass") * 1e3;
  }
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["facts"] = static_cast<double>(workload.facts.size());
  state.counters["cuboids"] =
      static_cast<double>(workload.lattice.num_cuboids());
  state.counters["passes"] = static_cast<double>(passes);
  state.counters["sorts"] = static_cast<double>(sorts);
  state.counters["spillMB"] =
      static_cast<double>(spill_bytes) / (1024.0 * 1024.0);
  state.counters["rollups"] = static_cast<double>(rollups);
  // Footprint counters for the perf-trajectory capture
  // (scripts/bench_capture.py): the fact table's resident bytes and the
  // peak MemoryBudget charge of the last iteration's computation.
  state.counters["factKB"] =
      static_cast<double>(workload.facts.ApproxBytes()) / 1024.0;
  state.counters["peakMemKB"] = static_cast<double>(peak_bytes) / 1024.0;
  state.counters["spillKB"] = static_cast<double>(spill_bytes) / 1024.0;
  // Stage breakdown from the execution context (last iteration): plan
  // time plus whichever per-stage family the algorithm recorded.
  state.counters["planMs"] = plan_ms;
  state.counters["cuboidMs"] = cuboid_ms;
  state.counters["pipeMs"] = pipe_ms;
  state.counters["passMs"] = pass_ms;
}

/// Registers the per-axis sweep of one figure: for each axis count in
/// [2, max_axes] and each algorithm, one benchmark named
/// "<figure>/<ALGO>/axes:<k>" — the series the paper plots.
inline void RegisterFigure(const std::string& figure,
                           const ExperimentSetting& base,
                           const std::vector<CubeAlgorithm>& algorithms,
                           size_t max_axes = 7) {
  for (size_t axes = 2; axes <= max_axes; ++axes) {
    ExperimentSetting setting = base;
    setting.num_axes = axes;
    for (CubeAlgorithm algo : algorithms) {
      std::string name = StringPrintf("%s/%s/axes:%zu", figure.c_str(),
                                      CubeAlgorithmToString(algo), axes);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [algo, setting](benchmark::State& state) {
            const Workload& workload = CachedTreebankWorkload(setting);
            RunCubeBenchmark(state, algo, workload);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

/// Registers the thread-scaling sweep: for each worker count in
/// `thread_counts` and each algorithm, one benchmark named
/// "<figure>/<ALGO>/threads:<t>" on a fixed workload — the speedup
/// series of the scaling figure. The threads:1 point is the sequential
/// baseline the others are normalized against.
inline void RegisterThreadSweep(const std::string& figure,
                                const ExperimentSetting& setting,
                                const std::vector<CubeAlgorithm>& algorithms,
                                const std::vector<size_t>& thread_counts) {
  for (CubeAlgorithm algo : algorithms) {
    for (size_t threads : thread_counts) {
      std::string name =
          StringPrintf("%s/%s/threads:%zu", figure.c_str(),
                       CubeAlgorithmToString(algo), threads);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [algo, setting, threads](benchmark::State& state) {
            const Workload& workload = CachedTreebankWorkload(setting);
            RunCubeBenchmark(state, algo, workload, threads);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

/// Observability flags shared by every bench binary:
///   --trace-out=<path>    enable the global tracer and export a Chrome
///                         trace JSON (load in Perfetto / about:tracing)
///   --metrics-out=<path>  export the metric registry as Prometheus text
/// Parsed and stripped before benchmark::Initialize (which rejects
/// unknown flags).
struct ObservabilityFlags {
  std::string trace_out;
  std::string metrics_out;
};

inline ObservabilityFlags ParseObservabilityFlags(int* argc, char** argv) {
  ObservabilityFlags flags;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    const std::string kTrace = "--trace-out=";
    const std::string kMetrics = "--metrics-out=";
    if (arg.rfind(kTrace, 0) == 0) {
      flags.trace_out = arg.substr(kTrace.size());
    } else if (arg.rfind(kMetrics, 0) == 0) {
      flags.metrics_out = arg.substr(kMetrics.size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  if (!flags.trace_out.empty()) Tracer::Global().SetEnabled(true);
  return flags;
}

/// Writes the requested exports after a bench run; X3_CHECKs on export
/// failure so CI smoke runs fail loudly instead of dropping the files.
inline void WriteObservabilityExports(const ObservabilityFlags& flags) {
  if (!flags.trace_out.empty()) {
    Status s = Tracer::Global().WriteChromeTrace(Env::Default(),
                                                 flags.trace_out);
    X3_CHECK(s.ok()) << "--trace-out export failed: " << s;
  }
  if (!flags.metrics_out.empty()) {
    Status s = MetricRegistry::Global().WritePrometheusFile(
        Env::Default(), flags.metrics_out);
    X3_CHECK(s.ok()) << "--metrics-out export failed: " << s;
  }
}

/// Runs whatever has been registered. The shared tail of every bench
/// main. Handles the observability flags before handing the rest of the
/// command line to the benchmark library.
inline int RunRegisteredBenchmarks(int argc, char** argv) {
  ObservabilityFlags flags = ParseObservabilityFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteObservabilityExports(flags);
  return 0;
}

/// Declarative description of one paper figure: the experimental
/// setting axes of §4 plus the algorithm series the figure plots. The
/// per-figure bench binaries are one FigureSpec each (the setup used to
/// be copy-pasted across all of them).
struct FigureSpec {
  std::string figure;
  bool coverage_holds = false;
  bool disjointness_holds = true;
  bool dense = false;
  /// Paper-scale tree count, scaled down by default; X3_BENCH_TREES
  /// overrides (see TreesFor).
  size_t default_trees = 10000;
  uint64_t seed = 42;
  std::vector<CubeAlgorithm> algorithms;
  size_t max_axes = 7;
};

/// Registers `spec`'s sweep and runs it: the whole main() of a
/// per-figure bench binary.
inline int RunFigureBenchmark(int argc, char** argv,
                              const FigureSpec& spec) {
  ExperimentSetting base;
  base.coverage_holds = spec.coverage_holds;
  base.disjointness_holds = spec.disjointness_holds;
  base.dense = spec.dense;
  base.num_trees = TreesFor(spec.default_trees);
  base.seed = spec.seed;
  RegisterFigure(spec.figure, base, spec.algorithms, spec.max_axes);
  return RunRegisteredBenchmarks(argc, argv);
}

}  // namespace bench
}  // namespace x3

#endif  // X3_BENCH_BENCH_COMMON_H_
