// cube_full: the paper's own measurement (§4, Figs. 8 and 9). ComputeCube
// at parallelism 1 over two dense Treebank fact tables with 5 axes,
// cycling through the algorithms under a working-memory budget of a
// quarter of the fact table (64 KB floor), so Fig. 9's TD family spills
// through the external sorter. The server is not involved.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cube/algorithm.h"
#include "inputs.h"
#include "schema/dtd_parser.h"
#include "schema/summarizability.h"
#include "storage/temp_file.h"
#include "workloads.h"
#include "x3/engine.h"
#include "xml/xml_parser.h"

namespace x3bench {

namespace {

constexpr size_t kAxes = 5;
constexpr double kBudgetFactor = 0.25;
constexpr size_t kBudgetFloorBytes = 64 * 1024;
/// Computations per second at the parent commit on a 4-vCPU x86 VM.
constexpr double kNominalRate = 170;

/// One fact table of the sweep and the algorithms run over it.
struct InputSpec {
  const char* figure;
  bool summarizable;
  size_t trees;
  std::vector<x3::CubeAlgorithm> algorithms;
};

std::vector<InputSpec> Inputs() {
  using A = x3::CubeAlgorithm;
  return {
      // Fig. 8: coverage and disjointness hold, every algorithm is exact.
      // 700 trees: plain TD, which sorts once per cuboid, then runs about
      // as long as Fig. 9's TD and TDCUST, so p99 sits among three
      // algorithms instead of in the tail of one 28 ms computation that
      // host preemption stretches at random.
      {"fig8",
       true,
       700,
       {A::kReference, A::kCounter, A::kBUC, A::kBUCOpt, A::kBUCCust, A::kTD,
        A::kTDOpt, A::kTDOptAll, A::kTDCust}},
      // Fig. 9: both violated; the OPT variants would be wrong here.
      // REFERENCE runs here too so that a cycle has an odd number of
      // computations (15): with an even number the median sample falls
      // on the boundary between two algorithms and reads the slowest
      // computation of the faster one.
      {"fig9",
       false,
       1000,
       {A::kReference, A::kCounter, A::kBUC, A::kBUCCust, A::kTD,
        A::kTDCust}},
  };
}

/// One set-up of one input: its database and prepared fact table.
struct Prepared {
  std::unique_ptr<x3::Database> db;
  std::unique_ptr<x3::PreparedQuery> prepared;
  x3::LatticeProperties properties;
  double load_s = 0;
  double prepare_ms = 0;
};

x3::Status SetUpInput(const CorpusText& corpus, const std::string& data_file,
                      Prepared* out) {
  x3::DatabaseOptions db_options;
  db_options.data_file = data_file;
  X3_ASSIGN_OR_RETURN(out->db, x3::Database::Open(db_options));
  Clock::time_point load_start = Clock::now();
  for (const std::string& doc : corpus.documents) {
    X3_RETURN_IF_ERROR(out->db->LoadXmlString(doc).status());
  }
  out->load_s = SecondsSince(load_start);
  x3::X3Engine engine(out->db.get());
  X3_ASSIGN_OR_RETURN(x3::CubeQuery query, engine.Compile(corpus.query_text));
  Clock::time_point prepare_start = Clock::now();
  X3_ASSIGN_OR_RETURN(x3::PreparedQuery prepared, engine.Prepare(query));
  out->prepare_ms = SecondsSince(prepare_start) * 1e3;
  out->prepared = std::make_unique<x3::PreparedQuery>(std::move(prepared));
  X3_ASSIGN_OR_RETURN(x3::SchemaGraph schema, x3::ParseDtd(corpus.dtd));
  X3_ASSIGN_OR_RETURN(out->properties,
                      x3::InferLatticeProperties(
                          schema, out->prepared->lattice, corpus.fact_tag));
  return x3::Status::OK();
}

struct Phase {
  PhaseFigures fig;
  std::unique_ptr<DeltaMeter> setup_meter;
  std::unique_ptr<DeltaMeter> meter;
  /// Per (input, algorithm): summed ms and computations.
  std::vector<std::vector<double>> ms;
  std::vector<std::vector<uint64_t>> n;
  uint64_t allocs = 0;
  size_t budget_peak_bytes = 0;
  /// Summed over the phase's set-ups.
  double load_s = 0;
  double prepare_ms = 0;
  double parse_s = 0;
};

class CubeFullRun {
 public:
  CubeFullRun(const RunConfig& config, RunReport* report)
      : config_(config), report_(report), specs_(Inputs()) {}

  bool Run();

 private:
  /// Loads and prepares both inputs (timed into `phase`), and computes
  /// the references from the first set-up.
  x3::Status SetUp(Phase* phase);
  bool RunPhase(bool traced, Phase* phase);
  bool RunChunk(bool traced, const std::string& trace_path, Phase* phase);
  bool MeasureParse(Phase* phase);
  void Report(const Phase& untraced, const Phase* traced);

  const RunConfig& config_;
  RunReport* report_;
  RegistryProbe probe_;
  std::vector<InputSpec> specs_;
  std::vector<CorpusText> corpora_;
  std::vector<Prepared> inputs_;
  std::vector<std::unique_ptr<x3::CubeResult>> references_;
  /// (input, algorithm index) of each op of one chunk.
  std::vector<std::pair<size_t, size_t>> chunk_ops_;
  int files_ = 0;
};

x3::Status CubeFullRun::SetUp(Phase* phase) {
  // Benchmark work and set-up run with the tracer paused; the previous
  // chunk's inputs are gone first, so no two sets are alive at once.
  TracerPause pause;
  inputs_.clear();
  std::vector<Prepared> inputs(corpora_.size());
  phase->setup_meter->Begin();
  Clock::time_point start = Clock::now();
  x3::Status s;
  for (size_t i = 0; i < corpora_.size() && s.ok(); ++i) {
    s = SetUpInput(corpora_[i],
                   config_.tmp_dir + "/x3bench-" + std::to_string(++files_) +
                       ".dat",
                   &inputs[i]);
  }
  phase->fig.setup_samples_s.push_back(SecondsSince(start));
  phase->setup_meter->End();
  X3_RETURN_IF_ERROR(s);
  inputs_ = std::move(inputs);
  for (const Prepared& p : inputs_) {
    phase->load_s += p.load_s;
    phase->prepare_ms += p.prepare_ms;
  }
  // Every set-up prepares the same text into the same fact tables, so the
  // first set-up's references serve every chunk.
  for (size_t i = references_.size(); i < inputs_.size(); ++i) {
    const Prepared& p = inputs_[i];
    x3::CubeComputeOptions options;
    options.aggregate = p.prepared->query.aggregate;
    options.properties = &p.properties;
    X3_ASSIGN_OR_RETURN(
        x3::CubeResult cube,
        x3::ComputeCube(x3::CubeAlgorithm::kReference, p.prepared->facts,
                        p.prepared->lattice, options));
    references_.push_back(std::make_unique<x3::CubeResult>(std::move(cube)));
  }
  return x3::Status::OK();
}

bool CubeFullRun::MeasureParse(Phase* phase) {
  Clock::time_point start = Clock::now();
  X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/parse_xml");
  for (const CorpusText& corpus : corpora_) {
    for (const std::string& doc : corpus.documents) {
      if (!x3::ParseXml(doc).ok()) return false;
    }
  }
  phase->parse_s = SecondsSince(start);
  return true;
}

bool CubeFullRun::RunPhase(bool traced, Phase* phase) {
  phase->setup_meter = std::make_unique<DeltaMeter>(&probe_);
  phase->meter = std::make_unique<DeltaMeter>(&probe_);
  phase->ms.assign(specs_.size(), {});
  phase->n.assign(specs_.size(), {});
  for (size_t i = 0; i < specs_.size(); ++i) {
    phase->ms[i].assign(specs_[i].algorithms.size(), 0);
    phase->n[i].assign(specs_[i].algorithms.size(), 0);
  }
  std::string trace_path =
      traced ? config_.out_dir + "/" + config_.workload + ".trace.json" : "";
  bool ok = true;
  phase->fig.chunks = traced ? kTracedChunks : kChunks;
  phase->fig.host_probe_before_ms = HostProbeMs();
  for (size_t chunk = 0; chunk < phase->fig.chunks; ++chunk) {
    x3::Status s = SetUp(phase);
    if (!s.ok()) {
      report_->messages.push_back("set-up: " + s.ToString());
      return false;
    }
    if (traced && chunk == 0 && !MeasureParse(phase)) {
      report_->messages.push_back("ParseXml rejected a generated tree");
      return false;
    }
    ok = RunChunk(traced, trace_path, phase) && ok;
  }
  phase->fig.host_probe_after_ms = HostProbeMs();
  phase->fig.peak_rss_mb = PeakRssMb();
  phase->fig.setup_s = Median(phase->fig.setup_samples_s);
  if (traced) report_->ledger.Drain(trace_path);
  return ok;
}

bool CubeFullRun::RunChunk(bool traced, const std::string& trace_path,
                           Phase* phase) {
  bool ok = true;
  for (size_t op = 0; op < chunk_ops_.size(); ++op) {
    auto [input, a] = chunk_ops_[op];
    const x3::PreparedQuery& prepared = *inputs_[input].prepared;
    x3::CubeAlgorithm algorithm = specs_[input].algorithms[a];
    size_t budget_bytes = std::max(
        static_cast<size_t>(static_cast<double>(prepared.facts.ApproxBytes()) *
                            kBudgetFactor),
        kBudgetFloorBytes);
    x3::TempFileManager temp_files(config_.tmp_dir);
    x3::MemoryBudget budget(budget_bytes);
    x3::ExecutionContext::Options ctx_options;
    ctx_options.budget = &budget;
    ctx_options.temp_files = &temp_files;
    x3::ExecutionContext ctx(ctx_options);
    x3::CubeComputeOptions options;
    options.aggregate = prepared.query.aggregate;
    options.properties = &inputs_[input].properties;
    options.exec = &ctx;
    options.parallelism = 1;

    ++phase->fig.attempted;
    uint64_t allocs_before = AllocCount();
    phase->meter->Begin();
    Clock::time_point start = Clock::now();
    x3::Result<x3::CubeResult> cube = [&] {
      X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/compute_cube");
      return x3::ComputeCube(algorithm, prepared.facts, prepared.lattice,
                             options);
    }();
    double ms = SecondsSince(start) * 1e3;
    phase->meter->End();
    phase->allocs += AllocCount() - allocs_before;
    phase->fig.latency.Add(ms);
    phase->fig.write_op.push_back(false);
    phase->ms[input][a] += ms;
    ++phase->n[input][a];
    phase->budget_peak_bytes =
        std::max(phase->budget_peak_bytes, budget.peak());

    std::string diff;
    if (!cube.ok() || !cube->Equals(*references_[input], &diff)) {
      ++phase->fig.failed;
      ok = false;
      report_->messages.push_back(
          std::string(specs_[input].figure) + " " +
          x3::CubeAlgorithmToString(algorithm) + " " +
          (cube.ok() ? "differs from REFERENCE: " + diff.substr(0, 200)
                     : cube.status().ToString()));
    }
    if (traced && (op + 1) % kDrainEvery == 0) {
      report_->ledger.Drain(trace_path);
    }
  }
  return ok;
}

void CubeFullRun::Report(const Phase& untraced, const Phase* traced) {
  report_->untraced = untraced.fig;
  auto add_counts = [&](const std::string& prefix, const Phase& p) {
    report_->counts[prefix + "ops"] = static_cast<double>(p.fig.attempted);
    for (const std::string& name : probe_.names()) {
      if (name == "queue_wait.sum_s") continue;
      report_->counts[prefix + "compute." + name] = p.meter->Get(name);
    }
    report_->counts[prefix + "budget_peak_bytes"] =
        static_cast<double>(p.budget_peak_bytes);
  };
  add_counts("", untraced);
  if (traced == nullptr) return;

  report_->traced = traced->fig;
  add_counts("traced.", *traced);
  const Phase& p = *traced;
  const double computes = static_cast<double>(p.fig.attempted);
  report_->counts["traced.allocs_per_compute"] =
      static_cast<double>(p.allocs) / computes;

  // Figure timings are client-side samples of the timed op itself, so
  // they come from the untraced phase; attribution comes from the traced.
  for (size_t i = 0; i < specs_.size(); ++i) {
    for (size_t a = 0; a < specs_[i].algorithms.size(); ++a) {
      if (untraced.n[i][a] == 0) continue;
      SetLayer(report_,
               std::string("cube.") + specs_[i].figure + "." +
                   x3::CubeAlgorithmToString(specs_[i].algorithms[a]) + "_ms",
               untraced.ms[i][a] / static_cast<double>(untraced.n[i][a]));
    }
  }
  SetLayer(report_, "cube.allocs_per_compute",
           static_cast<double>(p.allocs) / computes);
  SetLayer(report_, "storage.spill_kb_per_compute",
           p.meter->Get("x3_sort_spill_bytes_total") / 1024.0 / computes);
  SetLayer(report_, "storage.runs_spilled_per_compute",
           p.meter->Get("x3_sort_runs_spilled_total") / computes);
  SetLayer(report_, "storage.merge_passes_per_compute",
           p.meter->Get("x3_sort_merge_passes_total") / computes);
  SetLayer(report_, "util.budget_peak_kb",
           static_cast<double>(p.budget_peak_bytes) / 1024.0);

  double corpus_mb = 0;
  double fact_kb = 0;
  for (size_t i = 0; i < corpora_.size(); ++i) {
    corpus_mb += static_cast<double>(corpora_[i].Bytes()) / 1e6;
    fact_kb +=
        static_cast<double>(inputs_[i].prepared->facts.ApproxBytes()) / 1024.0;
  }
  const double setups = static_cast<double>(p.fig.chunks);
  SetLayer(report_, "cube.fact_kb", fact_kb);
  SetLayer(report_, "x3.prepare_ms",
           p.prepare_ms / (setups * static_cast<double>(inputs_.size())));
  SetLayer(report_, "xdb.load_mb_per_s", corpus_mb * setups / p.load_s);
  double hits = p.setup_meter->Get("x3_storage_pool_hits_total");
  double misses = p.setup_meter->Get("x3_storage_pool_misses_total");
  if (hits + misses > 0) {
    SetLayer(report_, "storage.pool_hit_ratio", hits / (hits + misses));
  }
  SetLayer(report_, "xml.parse_mb_per_s", corpus_mb / p.parse_s);
}

bool CubeFullRun::Run() {
  for (const InputSpec& spec : specs_) {
    uint64_t seed = config_.seed * 2 + (spec.summarizable ? 0 : 1);
    corpora_.push_back(
        TreebankCorpus(seed, spec.trees, 0, kAxes, spec.summarizable));
  }
  size_t per_cycle = 0;
  for (const InputSpec& spec : specs_) per_cycle += spec.algorithms.size();
  size_t cycles_per_chunk = UnitsFor(config_, kNominalRate, per_cycle) / kChunks;
  for (size_t c = 0; c < cycles_per_chunk; ++c) {
    for (size_t i = 0; i < specs_.size(); ++i) {
      for (size_t a = 0; a < specs_[i].algorithms.size(); ++a) {
        chunk_ops_.emplace_back(i, a);
      }
    }
  }

  Phase untraced;
  bool ok = RunPhase(/*traced=*/false, &untraced);
  if (untraced.fig.attempted == 0) return false;
  if (!config_.trace) {
    Report(untraced, nullptr);
    return ok;
  }

  x3::Tracer::Global().Clear();
  x3::Tracer::Global().SetEnabled(true);
  g_count_allocs.store(true, std::memory_order_relaxed);
  Phase traced;
  ok = RunPhase(/*traced=*/true, &traced) && ok;
  g_count_allocs.store(false, std::memory_order_relaxed);
  x3::Tracer::Global().SetEnabled(false);
  if (traced.fig.attempted == 0) return false;
  Report(untraced, &traced);
  return ok;
}

}  // namespace

bool RunCubeFullWorkload(const RunConfig& config, RunReport* report) {
  CubeFullRun run(config, report);
  return run.Run();
}

}  // namespace x3bench
