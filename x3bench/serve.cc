// serve_warm, serve_cold and ingest_mixed: one client thread in a closed
// loop against one X3Server worker, two tenants (dense Treebank with 3
// axes that violate coverage and disjointness; DBLP with 4 axes) sharing
// one server over one database.

#include <algorithm>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cube/cube_spec.h"
#include "cube/plan.h"
#include "cube/view_store.h"
#include "inputs.h"
#include "schema/dtd_parser.h"
#include "schema/summarizability.h"
#include "server/x3_server.h"
#include "storage/temp_file.h"
#include "util/query_id.h"
#include "workloads.h"
#include "x3/engine.h"
#include "xml/xml_parser.h"

namespace x3bench {

namespace {

enum class Kind { kWarm, kCold, kIngest };

constexpr size_t kTrees = 1000;
constexpr size_t kArticles = 1300;
constexpr size_t kTreebankAxes = 3;
/// serve_warm and ingest_mixed keep the server's default capacity, which
/// holds both shapes' finest views many times over; serve_cold's is below
/// one view, so the cache keeps only the view inserted last.
constexpr size_t kWarmCacheBytes = 64ull << 20;
constexpr size_t kColdCacheBytes = 1024;
/// Seeds the shuffle of the request round (see GenerateInputs).
constexpr uint64_t kStreamSeed = 7;
/// ingest_mixed: documents per tenant in one CommitDocuments batch ("a
/// few fresh documents from both tenants": four in all).
constexpr size_t kBatchPerTenant = 2;
/// ingest_mixed: one CommitDocuments batch per this many reads, so 1 op
/// in 10 is a commit and commits take about 30% of the timed phase:
/// throughput_per_s then moves by about a third of a relative change in
/// commit cost and by two thirds of one in read cost, so a read-side gain
/// that costs writes shows in one figure. Its reads ask for single
/// cuboids (a full-cube read costs several commits). See NOTES.md for
/// the kind of op each figure falls on.
constexpr size_t kReadsPerCommit = 9;
/// ingest_mixed rebuilds a tenant's reference every this many commits of
/// a chunk, and checks the reads served while it is current.
constexpr uint64_t kRecheckCommits = 64;

/// Ops per second of each workload's timed phase at the parent commit
/// on a 4-vCPU x86 VM; they size the fixed op count (UnitsFor).
double NominalRate(Kind kind) {
  switch (kind) {
    case Kind::kWarm:
      return 650;
    case Kind::kCold:
      return 170;
    case Kind::kIngest:
      return 1000;
  }
  return 1;
}

struct Op {
  bool commit = false;
  RequestSpec read;
};

/// One set-up: the database, the tenants' property maps and the server.
struct Instance {
  std::unique_ptr<x3::Database> db;
  std::vector<x3::LatticeProperties> properties;
  /// Declared last: destroyed (drained) before what it points into.
  std::unique_ptr<x3::X3Server> server;
  /// Requests submitted so far; the next request's server qid is one
  /// more (the server mints qids from 1 in submission order).
  uint64_t submitted = 0;
  double load_s = 0;
};

x3::ServerRequest MakeRequest(const CorpusText& corpus,
                              const x3::LatticeProperties* properties,
                              const RequestSpec& spec) {
  x3::ServerRequest request;
  request.query_text = QueryWithThreshold(corpus.query_text, spec.min_count);
  request.target = spec.target;
  request.algorithm = spec.algorithm;
  request.properties = properties;
  request.tenant = corpus.name;
  return request;
}

/// The program work before the first timed op: open the database, load
/// the XML text, infer each shape's property map, start the server and
/// send each tenant one full-cube request, which builds the shape and
/// fills the cache with its finest view.
x3::Status SetUp(const std::vector<const CorpusText*>& corpora,
                 size_t cache_bytes, const std::string& data_file,
                 Instance* inst) {
  x3::DatabaseOptions db_options;
  db_options.data_file = data_file;
  X3_ASSIGN_OR_RETURN(inst->db, x3::Database::Open(db_options));
  Clock::time_point load_start = Clock::now();
  for (const CorpusText* corpus : corpora) {
    for (const std::string& doc : corpus->documents) {
      X3_RETURN_IF_ERROR(inst->db->LoadXmlString(doc).status());
    }
  }
  inst->load_s = SecondsSince(load_start);

  x3::X3Engine engine(inst->db.get());
  for (const CorpusText* corpus : corpora) {
    X3_ASSIGN_OR_RETURN(x3::CubeQuery query,
                        engine.Compile(corpus->query_text));
    X3_ASSIGN_OR_RETURN(x3::CubeLattice lattice, x3::BuildCubeLattice(query));
    X3_ASSIGN_OR_RETURN(x3::SchemaGraph schema, x3::ParseDtd(corpus->dtd));
    X3_ASSIGN_OR_RETURN(
        x3::LatticeProperties properties,
        x3::InferLatticeProperties(schema, lattice, corpus->fact_tag));
    inst->properties.push_back(std::move(properties));
  }

  x3::X3ServerOptions options;
  options.num_threads = 1;
  options.cache_capacity_bytes = cache_bytes;
  inst->server = std::make_unique<x3::X3Server>(inst->db.get(), options);
  for (size_t t = 0; t < corpora.size(); ++t) {
    RequestSpec spec;
    spec.tenant = t;
    ++inst->submitted;
    X3_RETURN_IF_ERROR(
        inst->server
            ->Execute(MakeRequest(*corpora[t], &inst->properties[t], spec))
            .status());
  }
  return x3::Status::OK();
}

/// The oracle for one tenant: the same prepared fact table the server
/// builds, and its cube computed by kReference. In the traced phase the
/// prepared inputs also back the replays.
struct Reference {
  std::unique_ptr<x3::PreparedQuery> prepared;
  std::unique_ptr<x3::CubeResult> cube;
  std::unique_ptr<x3::CubeViewStore> views;
};

/// Benchmark work: runs with the tracer paused, so the program spans it
/// opens (plan, compute, sorter) never reach the per-layer ledger.
x3::Status BuildReference(x3::Database* db, const CorpusText& corpus,
                          const x3::LatticeProperties& properties,
                          Reference* ref) {
  TracerPause pause;
  x3::X3Engine engine(db);
  X3_ASSIGN_OR_RETURN(x3::CubeQuery query, engine.Compile(corpus.query_text));
  X3_ASSIGN_OR_RETURN(x3::PreparedQuery prepared, engine.Prepare(query));
  ref->prepared = std::make_unique<x3::PreparedQuery>(std::move(prepared));
  x3::CubeComputeOptions options;
  options.aggregate = query.aggregate;
  options.properties = &properties;
  X3_ASSIGN_OR_RETURN(
      x3::CubeResult cube,
      x3::ComputeCube(x3::CubeAlgorithm::kReference, ref->prepared->facts,
                      ref->prepared->lattice, options));
  ref->cube = std::make_unique<x3::CubeResult>(std::move(cube));
  ref->views = std::make_unique<x3::CubeViewStore>(&ref->prepared->facts,
                                                   &ref->prepared->lattice);
  return x3::Status::OK();
}

/// Cell-for-cell check of one served cuboid against the reference, with
/// the request's iceberg threshold applied to the reference side.
bool SameCuboid(const x3::CellMap& got, const x3::CubeResult& want_cube,
                x3::CuboidId id, int64_t min_count) {
  const auto& want = want_cube.cuboid(id);
  size_t expected = 0;
  for (const auto& [key, state] : want) {
    if (state.count >= min_count) ++expected;
  }
  if (got.size() != expected) return false;
  for (const auto& [key, state] : got) {
    if (state.count < min_count) return false;
    auto it = want.find(key);
    if (it == want.end() || !(it->second == state)) return false;
  }
  return true;
}

bool SameAnswer(const x3::ServerAnswer& answer, const Reference& ref,
                const RequestSpec& spec) {
  std::vector<x3::CuboidId> ids;
  if (spec.target.has_value()) {
    ids.push_back(*spec.target);
  } else {
    ids = ref.prepared->lattice.TopoOrder();
  }
  if (answer.cuboids.size() != ids.size()) return false;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (answer.cuboids[i].first != ids[i]) return false;
    if (!SameCuboid(answer.cuboids[i].second, *ref.cube, ids[i],
                    spec.min_count)) {
      return false;
    }
  }
  return true;
}

/// The server's LRU cuboid cache mirrored over the benchmark-side view
/// stores, with the same insert/evict rule, so replayed AnswerFromViews
/// calls see the views the server held for the same request.
class MirrorCache {
 public:
  MirrorCache(size_t capacity, std::vector<x3::CubeViewStore*> stores)
      : capacity_(capacity), stores_(std::move(stores)) {}

  /// Empties the mirror, as a fresh set-up's server cache starts empty.
  void Reset() {
    for (const Entry& e : lru_) stores_[e.tenant]->Evict(e.cuboid);
    lru_.clear();
    bytes_ = 0;
  }

  void Touch(size_t tenant, x3::CuboidId cuboid) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->tenant == tenant && it->cuboid == cuboid) {
        lru_.splice(lru_.begin(), lru_, it);
        return;
      }
    }
  }

  /// Replays the server's cache fill of one cuboid: materialize when
  /// absent (timed into `ms`), then insert and evict.
  x3::Status Fill(size_t tenant, x3::CuboidId cuboid, bool with_ids,
                  double* ms) {
    x3::CubeViewStore* store = stores_[tenant];
    if (store->Contains(cuboid)) return x3::Status::OK();
    Clock::time_point start = Clock::now();
    {
      X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/replay/materialize");
      X3_RETURN_IF_ERROR(store->Materialize(cuboid, with_ids));
    }
    *ms += SecondsSince(start) * 1e3;
    size_t bytes = store->ViewApproxBytes(cuboid);
    lru_.push_front(Entry{tenant, cuboid, bytes});
    bytes_ += bytes;
    auto it = lru_.end();
    while (capacity_ != 0 && bytes_ > capacity_ && it != lru_.begin()) {
      --it;
      if (it->tenant == tenant && it->cuboid == cuboid) continue;
      stores_[it->tenant]->Evict(it->cuboid);
      bytes_ -= it->bytes;
      it = lru_.erase(it);
    }
    return x3::Status::OK();
  }

 private:
  struct Entry {
    size_t tenant;
    x3::CuboidId cuboid;
    size_t bytes;
  };
  size_t capacity_;
  std::vector<x3::CubeViewStore*> stores_;
  std::list<Entry> lru_;
  size_t bytes_ = 0;
};

/// Replayed layer time of the traced phase, summed over the timed ops.
struct ReplaySums {
  double compile_ms = 0;
  double afv_hit_ms = 0;    // AnswerFromViews of queries served from views
  double afv_other_ms = 0;  // lookups a miss made before computing
  double plan_compute_ms = 0;
  double fill_ms = 0;
  uint64_t hit_queries = 0;
  uint64_t mirror_mismatches = 0;
};

/// Everything one timed phase measured.
struct PhaseData {
  PhaseFigures fig;
  Samples query_ms;
  Samples commit_ms;
  uint64_t queries = 0;
  uint64_t commits = 0;
  uint64_t miss_queries = 0;
  uint64_t miss_cells_returned = 0;
  uint64_t cells_returned = 0;
  uint64_t query_allocs = 0;
  uint64_t commit_allocs = 0;
  x3::DeltaStats delta;
  ReplaySums replay;
  size_t budget_peak_bytes = 0;
  double load_s = 0;
  std::unique_ptr<DeltaMeter> setup_meter;
  std::unique_ptr<DeltaMeter> query_meter;
  std::unique_ptr<DeltaMeter> commit_meter;
};

class ServeRun {
 public:
  ServeRun(const RunConfig& config, Kind kind, RunReport* report)
      : config_(config), kind_(kind), report_(report) {}

  bool Run();

 private:
  void GenerateInputs();
  bool RunPhase(bool traced, PhaseData* data);
  bool RunChunk(Instance* inst, bool traced, const std::string& trace_path,
                PhaseData* data);
  bool CheckRead(Instance* inst, const RequestSpec& spec,
                 const x3::ServerAnswer& answer, uint64_t commits_done);
  void Replay(Instance* inst, const RequestSpec& spec,
              const x3::ServerAnswer& answer, ReplaySums* sums);
  /// Traced phase: ParseXml over the corpus and one Prepare per shape on
  /// the traced instance's database.
  bool MeasureParseAndPrepare(Instance* inst);
  /// The mirror of a fresh set-up's cache: both shapes' finest views.
  x3::Status ResetMirror(Instance* inst);
  bool FinalIngestCheck(Instance* inst);
  void Report(const PhaseData& untraced, const PhaseData* traced);
  std::string DataFile() {
    return config_.tmp_dir + "/x3bench-" + std::to_string(++files_) + ".dat";
  }

  const RunConfig& config_;
  Kind kind_;
  RunReport* report_;
  RegistryProbe probe_;
  std::vector<CorpusText> corpora_;
  std::vector<const CorpusText*> corpus_ptrs_;
  std::vector<uint64_t> cuboids_;
  /// The ops of one chunk; every chunk makes them from its own set-up.
  std::vector<Op> chunk_ops_;
  /// The references of the set-up state, built once from the first
  /// set-up (every set-up loads the same text into the same state).
  std::vector<Reference> refs_;
  /// ingest_mixed: per-tenant reference over the current database, and
  /// the commit count of the chunk it reflects.
  std::vector<std::unique_ptr<Reference>> live_refs_;
  std::vector<uint64_t> live_epoch_;
  std::unique_ptr<MirrorCache> mirror_;
  double traced_parse_s_ = 0;
  double traced_prepare_ms_ = 0;
  int files_ = 0;
};

void ServeRun::GenerateInputs() {
  // Both tenants' lattices are fixed by the query shapes: 2^3 and 2^4
  // LND cuboids.
  cuboids_ = {uint64_t{1} << kTreebankAxes, uint64_t{1} << 4};
  // The request order is the same for every seed; the seed generates the
  // corpora and the write batches. In serve_cold whether a request hits
  // depends on the request before it, and a seeded order moved the median
  // request between a hit and a miss: p50 differed by 60% between seeds.
  uint64_t state = kStreamSeed;
  std::vector<Op> round;
  for (const RequestSpec& spec : RequestRound(&state, cuboids_)) {
    // ingest_mixed reads single cuboids (see kReadsPerCommit).
    if (kind_ == Kind::kIngest && !spec.target.has_value()) continue;
    Op op;
    op.read = spec;
    round.push_back(op);
  }
  size_t commits_per_round =
      kind_ == Kind::kIngest ? round.size() / kReadsPerCommit : 0;
  Op commit;
  commit.commit = true;
  round.insert(round.end(), commits_per_round, commit);
  Shuffle(&state, &round);
  // One seeded round, repeated: every chunk makes the same calls in the
  // same order from its own set-up, so chunks differ only by the host.
  size_t rounds_per_chunk =
      UnitsFor(config_, NominalRate(kind_), round.size()) / kChunks;
  for (size_t r = 0; r < rounds_per_chunk; ++r) {
    chunk_ops_.insert(chunk_ops_.end(), round.begin(), round.end());
  }
  // Every chunk commits the same fresh documents onto the same set-up.
  size_t fresh = rounds_per_chunk * commits_per_round * kBatchPerTenant;
  corpora_.push_back(TreebankCorpus(config_.seed, kTrees, fresh,
                                    kTreebankAxes, /*summarizable=*/false));
  corpora_.push_back(DblpCorpus(config_.seed, kArticles, fresh));
  for (const CorpusText& c : corpora_) corpus_ptrs_.push_back(&c);
}

bool ServeRun::CheckRead(Instance* inst, const RequestSpec& spec,
                         const x3::ServerAnswer& answer,
                         uint64_t commits_done) {
  size_t t = spec.tenant;
  if (commits_done == 0) return SameAnswer(answer, refs_[t], spec);
  // ingest_mixed: the database moves under the reads, so a read is
  // checked against a reference of the current database. The reference
  // is rebuilt every kRecheckCommits commits, and the reads served while
  // it is current are checked; each chunk's final state is checked in
  // full.
  if (commits_done % kRecheckCommits != 0) return true;
  if (live_refs_[t] == nullptr || live_epoch_[t] != commits_done) {
    auto ref = std::make_unique<Reference>();
    x3::Status s = BuildReference(inst->db.get(), corpora_[t],
                                  inst->properties[t], ref.get());
    if (!s.ok()) {
      report_->messages.push_back("reference rebuild failed: " +
                                  s.ToString());
      return false;
    }
    live_refs_[t] = std::move(ref);
    live_epoch_[t] = commits_done;
  }
  return SameAnswer(answer, *live_refs_[t], spec);
}

void ServeRun::Replay(Instance* inst, const RequestSpec& spec,
                      const x3::ServerAnswer& answer, ReplaySums* sums) {
  size_t t = spec.tenant;
  {
    x3::X3Engine engine(inst->db.get());
    std::string text = QueryWithThreshold(corpora_[t].query_text,
                                          spec.min_count);
    Clock::time_point start = Clock::now();
    X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/replay/compile");
    auto compiled = engine.Compile(text);
    sums->compile_ms += SecondsSince(start) * 1e3;
    if (!compiled.ok()) ++sums->mirror_mismatches;
  }
  // ingest_mixed replays compile only: the replay stores do not ingest.
  if (kind_ == Kind::kIngest) return;

  const Reference& ref = refs_[t];
  const x3::CubeLattice& lattice = ref.prepared->lattice;
  const x3::LatticeProperties& properties = inst->properties[t];
  std::vector<x3::CuboidId> ids;
  if (spec.target.has_value()) {
    ids.push_back(*spec.target);
  } else {
    ids = lattice.TopoOrder();
  }

  // The cache lookup as the server makes it: each target in turn, until
  // the first one no cached view can answer.
  uint64_t exact = 0;
  uint64_t rollup = 0;
  bool all_from_views = true;
  for (x3::CuboidId id : ids) {
    x3::ViewComputeStats view_stats;
    Clock::time_point start = Clock::now();
    bool ok;
    {
      X3_TRACE_SPAN(&x3::Tracer::Global(),
                    "x3bench/replay/answer_from_views");
      ok = ref.views
               ->AnswerFromViews(id, answer.aggregate, &properties,
                                 &view_stats)
               .ok();
    }
    double ms = SecondsSince(start) * 1e3;
    (answer.computed ? sums->afv_other_ms : sums->afv_hit_ms) += ms;
    if (!ok) {
      all_from_views = false;
      break;
    }
    mirror_->Touch(t, view_stats.source_view);
    ++(view_stats.strategy == x3::ViewStrategy::kExact ? exact : rollup);
  }
  if (!answer.computed) {
    ++sums->hit_queries;
    if (!all_from_views || exact != answer.exact_hits ||
        rollup != answer.rollup_answers) {
      ++sums->mirror_mismatches;
    }
    return;
  }
  if (all_from_views) ++sums->mirror_mismatches;

  // The miss: plan for the requested algorithm, compute with the one
  // that ran after the safety downgrade, then fill the cache.
  Clock::time_point start = Clock::now();
  {
    X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/replay/plan");
    x3::CubePlan plan = x3::BuildCubePlan(spec.algorithm, lattice, properties);
    if (plan.steps.empty()) ++sums->mirror_mismatches;
  }
  {
    x3::MemoryBudget budget;  // unlimited, as the server's admission budget
    x3::TempFileManager temp_files(config_.tmp_dir);
    x3::ExecutionContext::Options ctx_options;
    ctx_options.budget = &budget;
    ctx_options.temp_files = &temp_files;
    x3::ExecutionContext ctx(ctx_options);
    x3::CubeComputeOptions options;
    options.aggregate = answer.aggregate;
    options.properties = &properties;
    options.exec = &ctx;
    X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/replay/compute");
    if (!x3::ComputeCube(answer.algorithm_used, ref.prepared->facts, lattice,
                         options)
             .ok()) {
      ++sums->mirror_mismatches;
    }
  }
  sums->plan_compute_ms += SecondsSince(start) * 1e3;
  bool with_ids = !properties.DisjointEverywhere(lattice);
  x3::Status s = mirror_->Fill(t, lattice.FinestCuboid(), with_ids,
                               &sums->fill_ms);
  if (s.ok() && spec.target.has_value() &&
      *spec.target != lattice.FinestCuboid()) {
    s = mirror_->Fill(t, *spec.target, with_ids, &sums->fill_ms);
  }
  if (!s.ok()) ++sums->mirror_mismatches;
}

x3::Status ServeRun::ResetMirror(Instance* inst) {
  if (mirror_ == nullptr) {
    std::vector<x3::CubeViewStore*> stores;
    for (Reference& ref : refs_) stores.push_back(ref.views.get());
    mirror_ = std::make_unique<MirrorCache>(
        kind_ == Kind::kCold ? kColdCacheBytes : kWarmCacheBytes, stores);
  }
  mirror_->Reset();
  double unused_ms = 0;
  for (size_t t = 0; t < corpora_.size() && kind_ != Kind::kIngest; ++t) {
    const x3::CubeLattice& lattice = refs_[t].prepared->lattice;
    X3_RETURN_IF_ERROR(mirror_->Fill(
        t, lattice.FinestCuboid(),
        !inst->properties[t].DisjointEverywhere(lattice), &unused_ms));
  }
  return x3::Status::OK();
}

bool ServeRun::RunPhase(bool traced, PhaseData* d) {
  d->setup_meter = std::make_unique<DeltaMeter>(&probe_);
  d->query_meter = std::make_unique<DeltaMeter>(&probe_);
  d->commit_meter = std::make_unique<DeltaMeter>(&probe_);
  std::string trace_path =
      traced ? config_.out_dir + "/" + config_.workload + ".trace.json" : "";
  size_t cache = kind_ == Kind::kCold ? kColdCacheBytes : kWarmCacheBytes;
  std::vector<double> setup_s;
  bool ok = true;
  d->fig.chunks = traced ? kTracedChunks : kChunks;
  d->fig.host_probe_before_ms = HostProbeMs();
  for (size_t chunk = 0; chunk < d->fig.chunks; ++chunk) {
    // Each chunk starts from a set-up of its own, made after the previous
    // chunk's instance is gone. Every chunk then makes the same calls from
    // the same state (in ingest_mixed, onto the same database), and the
    // set-up samples spread over the run as the chunks do. Set-ups,
    // references and checks run with the tracer paused: the ledger covers
    // the timed ops and their replays.
    auto inst = std::make_unique<Instance>();
    x3::Status s;
    {
      TracerPause pause;
      d->setup_meter->Begin();
      Clock::time_point start = Clock::now();
      s = SetUp(corpus_ptrs_, cache, DataFile(), inst.get());
      setup_s.push_back(SecondsSince(start));
      d->setup_meter->End();
      if (s.ok() && refs_.empty()) {
        refs_.resize(corpora_.size());
        for (size_t t = 0; t < corpora_.size() && s.ok(); ++t) {
          s = BuildReference(inst->db.get(), corpora_[t], inst->properties[t],
                             &refs_[t]);
        }
      }
      if (s.ok() && traced) s = ResetMirror(inst.get());
    }
    if (!s.ok()) {
      report_->messages.push_back("set-up: " + s.ToString());
      return false;
    }
    if (traced && chunk == 0 && !MeasureParseAndPrepare(inst.get())) {
      report_->messages.push_back("traced parse/prepare failed");
      return false;
    }
    d->load_s += inst->load_s;
    ok = RunChunk(inst.get(), traced, trace_path, d) && ok;
    if (kind_ == Kind::kIngest) ok = FinalIngestCheck(inst.get()) && ok;
    d->budget_peak_bytes =
        std::max(d->budget_peak_bytes, inst->server->budget()->peak());
  }
  d->fig.host_probe_after_ms = HostProbeMs();
  d->fig.peak_rss_mb = PeakRssMb();
  d->fig.setup_s = Median(setup_s);
  d->fig.setup_samples_s = setup_s;
  if (traced) report_->ledger.Drain(trace_path);
  return ok;
}

bool ServeRun::RunChunk(Instance* inst, bool traced,
                        const std::string& trace_path, PhaseData* d) {
  live_refs_.clear();
  live_refs_.resize(corpora_.size());
  live_epoch_.assign(corpora_.size(), 0);
  uint64_t commits_done = 0;
  bool ok = true;
  for (size_t i = 0; i < chunk_ops_.size(); ++i) {
    const Op& op = chunk_ops_[i];
    ++d->fig.attempted;
    if (op.commit) {
      std::vector<std::string> docs;
      for (const CorpusText& corpus : corpora_) {
        for (size_t j = 0; j < kBatchPerTenant; ++j) {
          docs.push_back(corpus.fresh[commits_done * kBatchPerTenant + j]);
        }
      }
      uint64_t allocs_before = AllocCount();
      d->commit_meter->Begin();
      Clock::time_point start = Clock::now();
      x3::Result<x3::ServerWriteResult> written = [&] {
        X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/commit");
        return inst->server->CommitDocuments(docs);
      }();
      double ms = SecondsSince(start) * 1e3;
      d->commit_meter->End();
      d->commit_allocs += AllocCount() - allocs_before;
      d->fig.latency.Add(ms);
      d->fig.write_op.push_back(true);
      d->commit_ms.Add(ms);
      ++d->commits;
      ++commits_done;
      bool good = written.ok() && written->documents == docs.size() &&
                  written->shapes_updated == corpora_.size();
      if (written.ok()) {
        d->delta.views_patched += written->delta.views_patched;
        d->delta.views_recomputed += written->delta.views_recomputed;
        d->delta.facts_applied += written->delta.facts_applied;
        d->delta.cells_touched += written->delta.cells_touched;
      }
      if (!good) {
        ++d->fig.failed;
        ok = false;
        report_->messages.push_back(
            "commit " + std::to_string(commits_done) + " failed: " +
            (written.ok() ? std::string("wrong batch outcome")
                          : written.status().ToString()));
      }
    } else {
      const RequestSpec& spec = op.read;
      x3::ServerRequest request =
          MakeRequest(corpora_[spec.tenant], &inst->properties[spec.tenant],
                      spec);
      uint64_t qid = ++inst->submitted;
      uint64_t allocs_before = AllocCount();
      d->query_meter->Begin();
      Clock::time_point start = Clock::now();
      x3::Result<x3::ServerAnswer> answer = [&] {
        x3::ScopedQueryId scoped_qid(qid);
        X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/execute");
        return inst->server->Execute(std::move(request));
      }();
      double ms = SecondsSince(start) * 1e3;
      d->query_meter->End();
      d->query_allocs += AllocCount() - allocs_before;
      d->fig.latency.Add(ms);
      d->fig.write_op.push_back(false);
      d->query_ms.Add(ms);
      ++d->queries;
      bool good = answer.ok() && CheckRead(inst, spec, *answer, commits_done);
      if (answer.ok()) {
        uint64_t cells = 0;
        for (const auto& cuboid : answer->cuboids) {
          cells += cuboid.second.size();
        }
        d->cells_returned += cells;
        if (answer->computed) {
          ++d->miss_queries;
          d->miss_cells_returned += cells;
        }
        if (traced) {
          x3::ScopedQueryId scoped_qid(qid);
          Replay(inst, spec, *answer, &d->replay);
        }
      }
      if (!good) {
        ++d->fig.failed;
        ok = false;
        report_->messages.push_back(
            "query " + std::to_string(qid) + " " +
            (answer.ok() ? std::string("answered wrong")
                         : answer.status().ToString()));
      }
    }
    if (traced && (i + 1) % kDrainEvery == 0) report_->ledger.Drain(trace_path);
  }
  return ok;
}

bool ServeRun::FinalIngestCheck(Instance* inst) {
  TracerPause pause;
  bool ok = true;
  for (size_t t = 0; t < corpora_.size(); ++t) {
    Reference ref;
    x3::Status s = BuildReference(inst->db.get(), corpora_[t],
                                  inst->properties[t], &ref);
    RequestSpec spec;
    spec.tenant = t;
    ++inst->submitted;
    auto answer = inst->server->Execute(
        MakeRequest(corpora_[t], &inst->properties[t], spec));
    if (!s.ok() || !answer.ok() || !SameAnswer(*answer, ref, spec)) {
      ok = false;
      report_->messages.push_back(
          "after ingest, the " + corpora_[t].name +
          " full cube differs from a from-scratch computation");
    }
  }
  return ok;
}

bool ServeRun::MeasureParseAndPrepare(Instance* inst) {
  Clock::time_point start = Clock::now();
  {
    X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/parse_xml");
    for (const CorpusText& corpus : corpora_) {
      for (const std::string& doc : corpus.documents) {
        if (!x3::ParseXml(doc).ok()) return false;
      }
    }
  }
  traced_parse_s_ = SecondsSince(start);
  x3::X3Engine engine(inst->db.get());
  double total_ms = 0;
  for (const CorpusText& corpus : corpora_) {
    auto query = engine.Compile(corpus.query_text);
    if (!query.ok()) return false;
    Clock::time_point prepare_start = Clock::now();
    X3_TRACE_SPAN(&x3::Tracer::Global(), "x3bench/prepare");
    if (!engine.Prepare(*query).ok()) return false;
    total_ms += SecondsSince(prepare_start) * 1e3;
  }
  traced_prepare_ms_ = total_ms / static_cast<double>(corpora_.size());
  return true;
}

void ServeRun::Report(const PhaseData& untraced, const PhaseData* traced) {
  report_->untraced = untraced.fig;
  auto add_counts = [&](const std::string& prefix, const PhaseData& p) {
    std::map<std::string, double>& c = report_->counts;
    c[prefix + "ops"] = static_cast<double>(p.fig.attempted);
    c[prefix + "queries"] = static_cast<double>(p.queries);
    c[prefix + "commits"] = static_cast<double>(p.commits);
    c[prefix + "misses"] = static_cast<double>(p.miss_queries);
    c[prefix + "cells_returned"] = static_cast<double>(p.cells_returned);
    c[prefix + "delta.views_patched"] =
        static_cast<double>(p.delta.views_patched);
    c[prefix + "delta.views_recomputed"] =
        static_cast<double>(p.delta.views_recomputed);
    c[prefix + "delta.cells_touched"] =
        static_cast<double>(p.delta.cells_touched);
    for (const std::string& name : probe_.names()) {
      if (name == "queue_wait.sum_s") continue;
      c[prefix + "query." + name] = p.query_meter->Get(name);
      c[prefix + "commit." + name] = p.commit_meter->Get(name);
    }
  };
  add_counts("", untraced);
  if (untraced.commits > 0) {
    report_->diagnostics.push_back(
        "op kinds: " + std::to_string(untraced.queries) + " reads p50 " +
        Fixed(untraced.query_ms.Quantile(0.50)) + " ms max " +
        Fixed(untraced.query_ms.Quantile(1.0)) + " ms; " +
        std::to_string(untraced.commits) + " commits min " +
        Fixed(untraced.commit_ms.Quantile(0.0)) + " ms p50 " +
        Fixed(untraced.commit_ms.Quantile(0.50)) + " ms p90 " +
        Fixed(untraced.commit_ms.Quantile(0.90)) + " ms; commits take " +
        Fixed(untraced.commit_ms.Sum() /
              (untraced.commit_ms.Sum() + untraced.query_ms.Sum())) +
        " of the timed time");
  }
  if (traced == nullptr) return;

  report_->traced = traced->fig;
  add_counts("traced.", *traced);
  const PhaseData& p = *traced;
  report_->counts["traced.allocs_per_query"] =
      p.queries > 0 ? static_cast<double>(p.query_allocs) / p.queries : 0;
  report_->counts["traced.allocs_per_commit"] =
      p.commits > 0 ? static_cast<double>(p.commit_allocs) / p.commits : 0;
  report_->counts["traced.replay_mismatches"] =
      static_cast<double>(p.replay.mirror_mismatches);

  const double queries = static_cast<double>(p.queries);
  const double commits = static_cast<double>(p.commits);
  auto q = [&](const char* name) { return p.query_meter->Get(name); };
  auto c = [&](const char* name) { return p.commit_meter->Get(name); };
  const double misses = q("x3_server_cache_misses_total");
  const ReplaySums& r = p.replay;
  if (kind_ != Kind::kIngest) {
    double replayed = r.compile_ms + r.afv_hit_ms + r.afv_other_ms +
                      r.plan_compute_ms + r.fill_ms;
    SetLayer(report_, "server.residual_ms",
             (p.query_ms.Sum() - replayed) / queries);
    if (r.hit_queries > 0) {
      SetLayer(report_, "cube.answer_from_views_ms",
               r.afv_hit_ms / static_cast<double>(r.hit_queries));
    }
  }
  if (q("queue_wait.count") > 0) {
    SetLayer(report_, "server.queue_wait_us",
             q("queue_wait.sum_s") / q("queue_wait.count") * 1e6);
  }
  SetLayer(report_, "server.exact_hits_per_query",
           q("x3_server_cache_hits_total") / queries);
  SetLayer(report_, "server.rollups_per_query",
           q("x3_server_rollup_answers_total") / queries);
  SetLayer(report_, "server.misses_per_query", misses / queries);
  SetLayer(report_, "server.evictions_per_query",
           q("x3_server_cache_evictions_total") / queries);
  SetLayer(report_, "server.downgrades_per_query",
           q("x3_server_plan_downgrades_total") / queries);
  SetLayer(report_, "server.allocs_per_query",
           static_cast<double>(p.query_allocs) / queries);
  SetLayer(report_, "x3.compile_us", r.compile_ms * 1e3 / queries);
  SetLayer(report_, "cube.factset_unions_per_query",
           q("x3_factset_unions_total") / queries);
  if (misses > 0) {
    SetLayer(report_, "server.cache_fills_per_miss",
             (q("x3_server_cache_evictions_total") +
              q("x3_server_cache_views")) /
                 misses);
    SetLayer(report_, "cube.cells_computed_per_miss",
             q("x3_cube_result_cells_total") / misses);
    SetLayer(report_, "cube.answer_cell_yield",
             static_cast<double>(p.miss_cells_returned) /
                 q("x3_cube_result_cells_total"));
    if (kind_ != Kind::kIngest) {
      SetLayer(report_, "cube.compute_ms_per_miss", r.plan_compute_ms / misses);
      SetLayer(report_, "cube.fill_ms_per_miss", r.fill_ms / misses);
    }
  }
  if (commits > 0) {
    SetLayer(report_, "server.commit_p50_ms", p.commit_ms.Quantile(0.50));
    SetLayer(report_, "server.commit_p90_ms", p.commit_ms.Quantile(0.90));
    SetLayer(report_, "server.allocs_per_commit",
             static_cast<double>(p.commit_allocs) / commits);
    SetLayer(report_, "cube.delta_views_patched_per_commit",
             static_cast<double>(p.delta.views_patched) / commits);
    SetLayer(report_, "cube.delta_views_recomputed_per_commit",
             static_cast<double>(p.delta.views_recomputed) / commits);
    SetLayer(report_, "cube.delta_cells_touched_per_commit",
             static_cast<double>(p.delta.cells_touched) / commits);
    SetLayer(report_, "storage.wal_kb_per_commit",
             c("x3_wal_bytes_total") / 1024.0 / commits);
    SetLayer(report_, "storage.syncs_per_commit",
             c("x3_env_syncs_total") / commits);
  }
  double corpus_mb = 0;
  double fact_kb = 0;
  for (size_t t = 0; t < corpora_.size(); ++t) {
    corpus_mb += static_cast<double>(corpora_[t].Bytes()) / 1e6;
    fact_kb += static_cast<double>(refs_[t].prepared->facts.ApproxBytes()) /
               1024.0;
  }
  SetLayer(report_, "x3.prepare_ms", traced_prepare_ms_);
  SetLayer(report_, "xml.parse_mb_per_s", corpus_mb / traced_parse_s_);
  SetLayer(report_, "xdb.load_mb_per_s",
           corpus_mb * static_cast<double>(p.fig.chunks) / p.load_s);
  SetLayer(report_, "cube.fact_kb", fact_kb);
  auto s = [&](const char* name) { return p.setup_meter->Get(name); };
  double pool_hits = s("x3_storage_pool_hits_total") +
                     q("x3_storage_pool_hits_total") +
                     c("x3_storage_pool_hits_total");
  double pool_misses = s("x3_storage_pool_misses_total") +
                       q("x3_storage_pool_misses_total") +
                       c("x3_storage_pool_misses_total");
  if (pool_hits + pool_misses > 0) {
    SetLayer(report_, "storage.pool_hit_ratio",
             pool_hits / (pool_hits + pool_misses));
  }
  SetLayer(report_, "util.budget_peak_kb",
           static_cast<double>(p.budget_peak_bytes) / 1024.0);
}

bool ServeRun::Run() {
  GenerateInputs();
  // Untraced: kChunks chunks, each on its own set-up (setup_s is the
  // median of their set-up times); the references come from the first.
  PhaseData untraced;
  bool ok = RunPhase(/*traced=*/false, &untraced);
  if (untraced.fig.attempted == 0) return false;
  if (!config_.trace) {
    Report(untraced, nullptr);
    return ok;
  }

  // Traced: kTracedChunks of the same chunks with the tracer and
  // allocation counting on, and every layer call replayed after each op.
  x3::Tracer::Global().Clear();
  x3::Tracer::Global().SetEnabled(true);
  g_count_allocs.store(true, std::memory_order_relaxed);
  PhaseData traced;
  ok = RunPhase(/*traced=*/true, &traced) && ok;
  g_count_allocs.store(false, std::memory_order_relaxed);
  x3::Tracer::Global().SetEnabled(false);
  if (traced.fig.attempted == 0) return false;
  Report(untraced, &traced);
  return ok;
}

}  // namespace

bool RunServeWorkload(const RunConfig& config, RunReport* report) {
  Kind kind = config.workload == "serve_warm"   ? Kind::kWarm
              : config.workload == "serve_cold" ? Kind::kCold
                                                : Kind::kIngest;
  ServeRun run(config, kind, report);
  return run.Run();
}

}  // namespace x3bench
