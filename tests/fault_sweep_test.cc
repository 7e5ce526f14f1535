// Exhaustive storage-fault sweep: run a full load + checkpoint + cube +
// export workload once against a counting Env to learn its I/O schedule,
// then replay it failing every single operation index in turn. Each
// iteration must fail cleanly (an error Status, no crash, no budget
// leak, no temp-file leak) or — when the injected fault was swallowed by
// a legitimately best-effort path — produce the exact reference cube.
// Reopening the database afterwards with a healthy Env must either
// recover it or report Corruption/NotFound: never a wrong cube.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cube/algorithm.h"
#include "server/x3_server.h"
#include "storage/temp_file.h"
#include "storage/write_ahead_log.h"
#include "util/env.h"
#include "util/fault_env.h"
#include "util/hash.h"
#include "util/memory_budget.h"
#include "util/metrics.h"
#include "x3/engine.h"
#include "xdb/database.h"

namespace x3 {
namespace {

constexpr const char* kQuery = R"(
for $b in doc("pubs.xml")//publication,
    $n in $b/author/name,
    $y in $b/year
X^3 $b by $n (LND), $y (LND)
return COUNT($b))";

/// A deterministic publication corpus: enough facts that the TD sorts
/// spill under the tiny budget below, putting the external sorter's
/// run files into the swept I/O schedule.
constexpr size_t kNumPublications = 60;

std::string BuildCorpusXml() {
  std::string xml = "<database>";
  for (size_t i = 0; i < kNumPublications; ++i) {
    xml += "<publication><author><name>author";
    xml += std::to_string(i % 17);
    xml += "</name></author><year>";
    xml += std::to_string(1990 + (i * 7) % 23);
    xml += "</year></publication>";
  }
  xml += "</database>";
  return xml;
}

constexpr size_t kCubeBudgetBytes = 6 * 1024;
constexpr size_t kPoolFrames = 4;

struct WorkloadResult {
  Status status;
  std::string csv;
  uint64_t spilled_runs = 0;
};

/// The complete storage-touching pipeline, every byte of I/O routed
/// through `env`: parse a document from disk, shred it into a paged
/// database, checkpoint, compute a spilling cube, export it as CSV, and
/// reopen the checkpointed database.
WorkloadResult RunWorkload(Env* env, const std::string& xml_path,
                           const std::string& db_path,
                           const std::string& csv_path, MemoryBudget* budget,
                           TempFileManager* temp) {
  WorkloadResult result;
  auto run = [&]() -> Status {
    DatabaseOptions options;
    options.data_file = db_path;
    options.buffer_pool_pages = kPoolFrames;
    options.env = env;
    X3_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open(options));
    X3_RETURN_IF_ERROR(db->LoadXmlFile(xml_path).status());
    X3_RETURN_IF_ERROR(db->Checkpoint());

    X3Engine engine(db.get());
    ExecutionContext ctx({budget, temp, nullptr, std::nullopt});
    CubeComputeOptions copts;
    copts.exec = &ctx;
    X3_ASSIGN_OR_RETURN(X3ExecutionResult exec,
                        engine.Execute(kQuery, CubeAlgorithm::kTD, copts));
    result.spilled_runs = ctx.costs().spilled_runs.value();

    X3_RETURN_IF_ERROR(
        exec.cube.WriteCsv(csv_path, exec.lattice, exec.facts, env));
    X3_RETURN_IF_ERROR(ReadFileToString(env, csv_path, &result.csv));

    db.reset();
    X3_ASSIGN_OR_RETURN(std::unique_ptr<Database> reopened,
                        Database::OpenExisting(options));
    if (reopened->NodesWithTag("publication").size() != kNumPublications) {
      return Status::Corruption("reopened database lost publications");
    }
    return Status::OK();
  };
  result.status = run();
  return result;
}

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml_path_ = files_.NextPath("sweep-input-xml");
    db_path_ = files_.NextPath("sweep-db");
    csv_path_ = files_.NextPath("sweep-csv");
    ASSERT_TRUE(
        WriteStringToFile(Env::Default(), xml_path_, BuildCorpusXml()).ok());
  }

  void TearDown() override {
    Env::Default()->RemoveFile(db_path_ + ".cat").IgnoreError();
  }

  /// Removes the artifacts a previous iteration may have left so every
  /// iteration starts from the same on-disk state (a stale catalog from
  /// iteration N-1 would otherwise make iteration N's reopen outcome
  /// depend on sweep order).
  void CleanSlate() {
    Env::Default()->RemoveFile(db_path_).IgnoreError();
    Env::Default()->RemoveFile(db_path_ + ".cat").IgnoreError();
    Env::Default()->RemoveFile(csv_path_).IgnoreError();
  }

  /// Runs the workload against `env`, asserting the iteration-level
  /// invariants that must hold no matter where a fault landed.
  void RunIteration(Env* env, FaultInjectionEnv* fault,
                    const std::string& label) {
    MemoryBudget budget(kCubeBudgetBytes);
    TempFileManager temp("", env);
    WorkloadResult r =
        RunWorkload(env, xml_path_, db_path_, csv_path_, &budget, &temp);

    // Every reservation must have been released on the error path.
    EXPECT_EQ(budget.used(), 0u) << label << ": leaked budget after "
                                 << r.status.ToString();
    // Spill/temp files must have been cleaned up (removal is metadata,
    // which the schedule never fails here).
    EXPECT_EQ(temp.failed_removes(), 0u) << label;

    if (r.status.ok()) {
      // A fault was absorbed by a best-effort path (or never reached —
      // e.g. it was scheduled past the end). Absorption is only
      // acceptable when the output is still exactly right.
      EXPECT_EQ(r.csv, reference_csv_) << label << ": fault was swallowed "
                                       << "and the cube is wrong";
    } else {
      // Structured failure, not a crash; the fault (or its injected
      // origin) must be identifiable.
      EXPECT_GE(fault->faults_fired(), 1u) << label << ": workload failed "
                                           << "without an injected fault: "
                                           << r.status.ToString();
    }

    // Recovery: a healthy environment must either reopen the database
    // (and then it must be intact) or refuse with a structured error —
    // silently serving damaged pages is the one forbidden outcome.
    DatabaseOptions options;
    options.data_file = db_path_;
    options.buffer_pool_pages = kPoolFrames;
    auto reopened = Database::OpenExisting(options);
    if (reopened.ok()) {
      EXPECT_EQ((*reopened)->NodesWithTag("publication").size(), kNumPublications)
          << label;
    } else {
      StatusCode code = reopened.status().code();
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kNotFound)
          << label << ": reopen after fault reported "
          << reopened.status().ToString();
    }
  }

  TempFileManager files_;
  std::string xml_path_;
  std::string db_path_;
  std::string csv_path_;
  std::string reference_csv_;
};

TEST_F(FaultSweepTest, ExhaustiveSweep) {
  // Reference run: no faults armed, but every operation counted.
  FaultInjectionEnv counting(Env::Default());
  CleanSlate();
  MemoryBudget ref_budget(kCubeBudgetBytes);
  TempFileManager ref_temp("", &counting);
  WorkloadResult reference = RunWorkload(&counting, xml_path_, db_path_,
                                         csv_path_, &ref_budget, &ref_temp);
  ASSERT_TRUE(reference.status.ok()) << reference.status;
  // Healthy env: every temp file the workload created must have been
  // removed cleanly (a non-zero count means leaked spill files).
  EXPECT_EQ(ref_temp.failed_removes(), 0u);
  ASSERT_GT(reference.spilled_runs, 0u)
      << "workload must spill so sorter I/O is in the swept schedule";
  ASSERT_FALSE(reference.csv.empty());
  reference_csv_ = reference.csv;
  const uint64_t total_ops = counting.ops_seen();
  ASSERT_GT(total_ops, 20u);
  RecordProperty("total_ops", static_cast<int>(total_ops));
  std::cout << "[ SCHEDULE ] " << total_ops << " I/O ops ("
            << reference.spilled_runs << " spilled runs)" << std::endl;

  // The workload must be deterministic for index-based replay to mean
  // anything: a second clean run sees the identical schedule.
  {
    FaultInjectionEnv recount(Env::Default());
    CleanSlate();
    MemoryBudget budget(kCubeBudgetBytes);
    TempFileManager temp("", &recount);
    WorkloadResult again = RunWorkload(&recount, xml_path_, db_path_,
                                       csv_path_, &budget, &temp);
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(temp.failed_removes(), 0u);
    ASSERT_EQ(recount.ops_seen(), total_ops);
    ASSERT_EQ(again.csv, reference_csv_);
  }

  // Exhaustive replay: fail every op index once, with a seeded fault
  // kind (inapplicable kinds degrade to EIO inside the injector, so
  // the assignment can be blind).
  constexpr FaultKind kKinds[] = {FaultKind::kEIO, FaultKind::kENOSPC,
                                  FaultKind::kShortRead, FaultKind::kShortWrite,
                                  FaultKind::kSyncFailure};
  FaultInjectionEnv fault(Env::Default());
  for (uint64_t index = 0; index < total_ops; ++index) {
    CleanSlate();
    FaultInjectionEnv::Options opts;
    opts.fail_op_index = index;
    opts.kind = kKinds[HashFinalize(0x5eed ^ index) % std::size(kKinds)];
    opts.seed = index;
    fault.Arm(opts);
    RunIteration(&fault, &fault,
                 "op " + std::to_string(index) + " (" +
                     FaultKindToString(opts.kind) + ")");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(FaultSweepTest, TornWriteCrashPoints) {
  // Learn which schedule indexes are writes; tearing anything else is
  // just an EIO, which the exhaustive sweep already covers.
  FaultInjectionEnv counting(Env::Default());
  CleanSlate();
  MemoryBudget ref_budget(kCubeBudgetBytes);
  TempFileManager ref_temp("", &counting);
  WorkloadResult reference = RunWorkload(&counting, xml_path_, db_path_,
                                         csv_path_, &ref_budget, &ref_temp);
  ASSERT_TRUE(reference.status.ok()) << reference.status;
  EXPECT_EQ(ref_temp.failed_removes(), 0u);
  reference_csv_ = reference.csv;

  std::vector<uint64_t> write_indexes;
  std::vector<FaultOp> trace = counting.op_trace();
  for (uint64_t i = 0; i < trace.size(); ++i) {
    if (trace[i] == FaultOp::kWrite) write_indexes.push_back(i);
  }
  ASSERT_GE(write_indexes.size(), 8u);

  // Every write index is a crash point; three seeds vary how much of
  // the torn write reaches the disk.
  FaultInjectionEnv fault(Env::Default());
  for (uint64_t seed : {11u, 22u, 33u}) {
    // Sample the write list deterministically (up to 12 points per
    // seed) so three full sweeps stay fast; different seeds sample
    // different offsets.
    size_t stride = std::max<size_t>(1, write_indexes.size() / 12);
    for (size_t w = seed % stride; w < write_indexes.size(); w += stride) {
      CleanSlate();
      FaultInjectionEnv::Options opts;
      opts.fail_op_index = write_indexes[w];
      opts.kind = FaultKind::kTornWriteCrash;
      opts.seed = seed;
      fault.Arm(opts);
      std::string label = "torn write at op " +
                          std::to_string(write_indexes[w]) + " seed " +
                          std::to_string(seed);
      RunIteration(&fault, &fault, label);
      if (fault.faults_fired() > 0) {
        EXPECT_TRUE(fault.crashed()) << label;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(FaultSweepTest, TransientFaultsRecoverUnderRetry) {
  FaultInjectionEnv counting(Env::Default());
  CleanSlate();
  MemoryBudget ref_budget(kCubeBudgetBytes);
  TempFileManager ref_temp("", &counting);
  WorkloadResult reference = RunWorkload(&counting, xml_path_, db_path_,
                                         csv_path_, &ref_budget, &ref_temp);
  ASSERT_TRUE(reference.status.ok()) << reference.status;
  EXPECT_EQ(ref_temp.failed_removes(), 0u);
  const uint64_t total_ops = counting.ops_seen();

  // A transient fault at any point, run under the retrying Env, must be
  // invisible: the workload succeeds and the cube is byte-identical.
  FaultInjectionEnv fault(Env::Default());
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 0;  // no real sleeping in tests
  RetryEnv retry(&fault, policy);
  uint64_t retries_before = 0;
  size_t stride = std::max<uint64_t>(1, total_ops / 25);
  for (uint64_t index = 0; index < total_ops; index += stride) {
    CleanSlate();
    FaultInjectionEnv::Options opts;
    opts.fail_op_index = index;
    opts.transient = true;
    opts.seed = index;
    fault.Arm(opts);
    MemoryBudget budget(kCubeBudgetBytes);
    TempFileManager temp("", &retry);
    WorkloadResult r =
        RunWorkload(&retry, xml_path_, db_path_, csv_path_, &budget, &temp);
    ASSERT_TRUE(r.status.ok())
        << "transient fault at op " << index
        << " should have been retried: " << r.status.ToString();
    EXPECT_EQ(r.csv, reference.csv) << "op " << index;
    EXPECT_EQ(budget.used(), 0u);
    EXPECT_GT(retry.retries_attempted(), retries_before) << "op " << index;
    retries_before = retry.retries_attempted();
  }
}

// --- WAL lane: transactional batch ingest under faults ---

constexpr const char* kBatchDocA =
    "<database><publication><author><name>walA</name></author>"
    "<year>2001</year></publication></database>";
constexpr const char* kBatchDocB =
    "<database><publication><author><name>walB</name></author>"
    "<year>2002</year></publication></database>";
constexpr size_t kBatchDocs = 2;

/// Flattens an execution's cube into comparable (cuboid → key → count)
/// form, mirroring FlattenAnswer below for the engine path.
std::map<CuboidId, std::map<GroupKey, int64_t>> FlattenCube(
    const X3ExecutionResult& exec) {
  std::map<CuboidId, std::map<GroupKey, int64_t>> flat;
  for (CuboidId id = 0; id < exec.cube.num_cuboids(); ++id) {
    auto& m = flat[id];
    for (const auto& [key, state] : exec.cube.cuboid(id)) m[key] = state.count;
  }
  return flat;
}

/// Sweeps faults through the transactional write path: a durable base
/// corpus, then BeginBatch → two document loads → CommitBatch →
/// Checkpoint with every I/O index failed in turn. The invariant is
/// atomicity across crash-and-recover: a healthy reopen always
/// succeeds (the base checkpoint is never at risk), sees either all of
/// the batch or none of it — 62 or 60 publications, never 61 — sees
/// all of it whenever CommitBatch returned OK, and computes a cube
/// that is cell-exact against the matching reference.
class WalFaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_path_ = files_.NextPath("wal-sweep-db");
    base_xml_ = BuildCorpusXml();
    ComputeReference(/*with_batch=*/false, &reference_base_);
    ComputeReference(/*with_batch=*/true, &reference_full_);
  }

  void TearDown() override { CleanSlate(); }

  void CleanSlate() {
    Env::Default()->RemoveFile(db_path_).IgnoreError();
    Env::Default()->RemoveFile(db_path_ + ".cat").IgnoreError();
    WriteAheadLog::RemoveSegments(Env::Default(), db_path_).IgnoreError();
  }

  /// Reference cube from a pristine in-memory database loading the
  /// same documents in the same order (so interned ValueIds line up).
  void ComputeReference(bool with_batch,
                        std::map<CuboidId, std::map<GroupKey, int64_t>>* out) {
    auto db = Database::Open({});
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->LoadXmlString(base_xml_).ok());
    if (with_batch) {
      ASSERT_TRUE((*db)->LoadXmlString(kBatchDocA).ok());
      ASSERT_TRUE((*db)->LoadXmlString(kBatchDocB).ok());
    }
    X3Engine engine(db->get());
    auto exec = engine.Execute(kQuery, CubeAlgorithm::kTD);
    ASSERT_TRUE(exec.ok()) << exec.status();
    *out = FlattenCube(*exec);
    ASSERT_FALSE(out->empty());
  }

  /// Opens a fresh database over `env` and makes the base corpus
  /// durable with a checkpoint. Faults must be disarmed here: the swept
  /// schedule starts at the batch phase.
  Result<std::unique_ptr<Database>> OpenFresh(Env* env) {
    DatabaseOptions options;
    options.data_file = db_path_;
    options.buffer_pool_pages = kPoolFrames;
    options.env = env;
    X3_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open(options));
    X3_RETURN_IF_ERROR(db->LoadXmlString(base_xml_).status());
    X3_RETURN_IF_ERROR(db->Checkpoint());
    return db;
  }

  struct BatchOutcome {
    /// CommitBatch returned OK: the batch is durable in the WAL and
    /// recovery must surface it no matter what happens afterwards.
    bool committed = false;
    /// First error of the whole phase (OK = commit AND checkpoint ran
    /// clean, i.e. the fault landed past the schedule's end).
    Status status;
  };

  /// The swept phase: one transactional batch plus the checkpoint that
  /// retires its WAL segments.
  BatchOutcome RunBatchPhase(Database* db) {
    BatchOutcome out;
    auto run = [&]() -> Status {
      X3_RETURN_IF_ERROR(db->BeginBatch());
      for (const char* doc : {kBatchDocA, kBatchDocB}) {
        Status s = db->LoadXmlString(doc).status();
        if (!s.ok()) {
          db->RollbackBatch().IgnoreError();
          return s;
        }
      }
      X3_RETURN_IF_ERROR(db->CommitBatch().status());
      out.committed = true;
      X3_RETURN_IF_ERROR(db->Checkpoint());
      return Status::OK();
    };
    out.status = run();
    return out;
  }

  /// Reopens with a healthy env and checks the atomicity invariants.
  /// Returns the publication count seen.
  size_t CheckRecovered(const BatchOutcome& outcome, const std::string& label,
                        bool check_cube) {
    DatabaseOptions options;
    options.data_file = db_path_;
    options.buffer_pool_pages = kPoolFrames;
    auto reopened = Database::OpenExisting(options);
    // The base corpus was checkpointed before the fault was armed, so
    // recovery has a sound prefix to land on: reopen must succeed.
    EXPECT_TRUE(reopened.ok())
        << label << ": healthy reopen failed: " << reopened.status();
    if (!reopened.ok()) return 0;

    size_t count = (*reopened)->NodesWithTag("publication").size();
    const bool has_batch = count == kNumPublications + kBatchDocs;
    EXPECT_TRUE(count == kNumPublications || has_batch)
        << label << ": partial batch visible after recovery (" << count
        << " publications)";
    if (outcome.committed) {
      EXPECT_TRUE(has_batch)
          << label << ": committed batch lost on recovery (" << count
          << " publications)";
    }

    if (check_cube) {
      X3Engine engine(reopened->get());
      auto exec = engine.Execute(kQuery, CubeAlgorithm::kTD);
      EXPECT_TRUE(exec.ok()) << label << ": " << exec.status();
      if (exec.ok()) {
        EXPECT_EQ(FlattenCube(*exec),
                  has_batch ? reference_full_ : reference_base_)
            << label << ": recovered cube has wrong cells";
      }
    }
    return count;
  }

  TempFileManager files_;
  std::string db_path_;
  std::string base_xml_;
  std::map<CuboidId, std::map<GroupKey, int64_t>> reference_base_;
  std::map<CuboidId, std::map<GroupKey, int64_t>> reference_full_;
};

TEST_F(WalFaultSweepTest, BatchIngestIsAtomicUnderEveryFault) {
  // Learn the batch phase's I/O schedule: Arm() resets the op counter,
  // so indexes are relative to the phase start, not the base load.
  FaultInjectionEnv counting(Env::Default());
  CleanSlate();
  uint64_t total_ops = 0;
  {
    auto db = OpenFresh(&counting);
    ASSERT_TRUE(db.ok()) << db.status();
    counting.Arm(FaultInjectionEnv::Options{});
    BatchOutcome outcome = RunBatchPhase(db->get());
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    total_ops = counting.ops_seen();
    // A clean commit + checkpoint retires every WAL segment.
    EXPECT_FALSE(
        Env::Default()->FileExists(WriteAheadLog::SegmentPath(db_path_, 1)));
  }
  ASSERT_GT(total_ops, 4u) << "batch phase too small to sweep";
  std::cout << "[ SCHEDULE ] " << total_ops << " batch-phase I/O ops"
            << std::endl;

  // Replayability: the batch phase sees the identical schedule on a
  // second clean run.
  {
    CleanSlate();
    auto db = OpenFresh(&counting);
    ASSERT_TRUE(db.ok()) << db.status();
    counting.Arm(FaultInjectionEnv::Options{});
    BatchOutcome outcome = RunBatchPhase(db->get());
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    ASSERT_EQ(counting.ops_seen(), total_ops);
    CheckRecovered(outcome, "clean run", /*check_cube=*/true);
  }

  // Exhaustive sweep: every batch-phase op index × every fault kind,
  // including the crash kind (after it fires, every later operation in
  // the iteration fails — the close runs against the "dead machine",
  // so nothing after the crash point can leak to disk).
  constexpr FaultKind kKinds[] = {FaultKind::kEIO, FaultKind::kENOSPC,
                                  FaultKind::kShortWrite,
                                  FaultKind::kSyncFailure,
                                  FaultKind::kTornWriteCrash};
  FaultInjectionEnv fault(Env::Default());
  for (uint64_t index = 0; index < total_ops; ++index) {
    for (FaultKind kind : kKinds) {
      CleanSlate();
      auto db = OpenFresh(&fault);
      ASSERT_TRUE(db.ok()) << db.status();

      FaultInjectionEnv::Options opts;
      opts.fail_op_index = index;
      opts.kind = kind;
      opts.seed = index;
      fault.Arm(opts);
      const std::string label = "batch op " + std::to_string(index) + " (" +
                                FaultKindToString(kind) + ")";
      BatchOutcome outcome = RunBatchPhase(db->get());
      if (!outcome.status.ok()) {
        EXPECT_GE(fault.faults_fired(), 1u)
            << label << ": batch failed without an injected fault: "
            << outcome.status.ToString();
      }
      // Close while still armed: for the crash kind this models the
      // process dying — the destructor's I/O all fails.
      db->reset();
      fault.Arm(FaultInjectionEnv::Options{});

      size_t count = CheckRecovered(outcome, label, /*check_cube=*/true);
      if (::testing::Test::HasFatalFailure()) return;

      // Recovery is idempotent: a second reopen (which re-runs WAL
      // replay / tail-page repair on whatever the first one wrote)
      // sees the same database.
      DatabaseOptions options;
      options.data_file = db_path_;
      options.buffer_pool_pages = kPoolFrames;
      auto again = Database::OpenExisting(options);
      ASSERT_TRUE(again.ok()) << label << ": second reopen failed: "
                              << again.status();
      EXPECT_EQ((*again)->NodesWithTag("publication").size(), count)
          << label << ": recovery not idempotent";
    }
  }
}

// --- Server lane: the same discipline for the serving layer ---

/// Flattens a ServerAnswer into comparable (cuboid → key → count) form.
std::map<CuboidId, std::map<GroupKey, int64_t>> FlattenAnswer(
    const ServerAnswer& answer) {
  std::map<CuboidId, std::map<GroupKey, int64_t>> flat;
  for (const auto& [id, cells] : answer.cuboids) {
    auto& m = flat[id];
    for (const auto& [key, state] : cells) m[key] = state.count;
  }
  return flat;
}

/// Sweeps storage faults through an X3Server whose spill files run over
/// a FaultInjectionEnv. Invariants per iteration: the query the fault
/// lands in fails with a structured error (or absorbs it and stays
/// cell-exact), the other in-flight queries stay exact, a follow-up
/// query on the healed env is exact, and the admission budget drains
/// back to zero — a faulted query must never wedge the session.
class ServerFaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open({});
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->LoadXmlString(BuildCorpusXml()).ok());

    X3Engine probe(db_.get());
    auto query = probe.Compile(kQuery);
    ASSERT_TRUE(query.ok()) << query.status();
    query_ = *query;
    auto prepared = probe.Prepare(query_);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    finest_ = prepared->lattice.FinestCuboid();
    coarsest_ = prepared->lattice.TopoOrder().back();
    // Admission fits exactly one in-flight query, and the slack left
    // over after the fact-table reservation is far below the sorter's
    // working set — every compute run spills through the injected env.
    budget_bytes_ = prepared->facts.ApproxBytes() + 1024;
  }

  /// The per-iteration request mix: three TD computes (full cube,
  /// coarsest point, finest point). use_cache=false keeps every request
  /// on the compute path, so each one's spill I/O is in the schedule.
  std::vector<ServerRequest> MakeRequests() const {
    std::vector<ServerRequest> requests(3);
    requests[1].target = coarsest_;
    requests[2].target = finest_;
    for (ServerRequest& r : requests) {
      r.query = query_;
      r.algorithm = CubeAlgorithm::kTD;
      r.use_cache = false;
    }
    return requests;
  }

  /// One worker: submissions are concurrent, execution is FIFO, so the
  /// spill-op schedule is deterministic and index-replay is meaningful.
  std::unique_ptr<X3Server> MakeServer(Env* env) {
    X3ServerOptions options;
    options.num_threads = 1;
    options.admission_budget_bytes = budget_bytes_;
    options.env = env;
    return std::make_unique<X3Server>(db_.get(), options);
  }

  /// Runs the mix against a fresh server on `env`; every answer must be
  /// OK. Returns the flattened answers.
  std::vector<std::map<CuboidId, std::map<GroupKey, int64_t>>> RunClean(
      Env* env) {
    std::vector<std::map<CuboidId, std::map<GroupKey, int64_t>>> flats;
    auto server = MakeServer(env);
    std::vector<std::shared_ptr<X3Server::Ticket>> tickets;
    for (ServerRequest& request : MakeRequests()) {
      tickets.push_back(server->Submit(std::move(request)));
    }
    for (auto& ticket : tickets) {
      auto answer = ticket->Wait();
      EXPECT_TRUE(answer.ok()) << answer.status();
      if (!answer.ok()) return flats;
      flats.push_back(FlattenAnswer(*answer));
    }
    EXPECT_EQ(server->budget()->used(), 0u);
    return flats;
  }

  std::unique_ptr<Database> db_;
  CubeQuery query_;
  CuboidId finest_ = 0;
  CuboidId coarsest_ = 0;
  size_t budget_bytes_ = 0;
};

TEST_F(ServerFaultSweepTest, SpillFaultsFailCleanlyAndSessionStaysLive) {
  // Learn the schedule, and prove it is replayable.
  FaultInjectionEnv counting(Env::Default());
  auto reference = RunClean(&counting);
  ASSERT_EQ(reference.size(), 3u);
  const uint64_t total_ops = counting.ops_seen();
  ASSERT_GT(total_ops, 0u)
      << "server mix must spill so its I/O is in the swept schedule";
  {
    FaultInjectionEnv recount(Env::Default());
    auto again = RunClean(&recount);
    ASSERT_EQ(again.size(), 3u);
    ASSERT_EQ(recount.ops_seen(), total_ops);
    for (size_t i = 0; i < 3; ++i) ASSERT_EQ(again[i], reference[i]);
  }
  std::cout << "[ SCHEDULE ] " << total_ops << " server spill ops"
            << std::endl;

  constexpr FaultKind kKinds[] = {FaultKind::kEIO, FaultKind::kENOSPC,
                                  FaultKind::kShortRead, FaultKind::kShortWrite,
                                  FaultKind::kSyncFailure};
  FaultInjectionEnv fault(Env::Default());
  const uint64_t stride = std::max<uint64_t>(1, total_ops / 24);
  for (uint64_t index = 0; index < total_ops; index += stride) {
    FaultInjectionEnv::Options opts;
    opts.fail_op_index = index;
    opts.kind = kKinds[HashFinalize(0xfeed ^ index) % std::size(kKinds)];
    opts.seed = index;
    fault.Arm(opts);
    const std::string label = "server op " + std::to_string(index) + " (" +
                              FaultKindToString(opts.kind) + ")";

    auto server = MakeServer(&fault);
    auto requests = MakeRequests();
    std::vector<std::shared_ptr<X3Server::Ticket>> tickets;
    for (ServerRequest& request : requests) {
      ServerRequest copy = request;
      tickets.push_back(server->Submit(std::move(copy)));
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      auto answer = tickets[i]->Wait();
      if (answer.ok()) {
        // The fault landed elsewhere (or was absorbed): absorption is
        // only acceptable when the cells are still exactly right.
        EXPECT_EQ(FlattenAnswer(*answer), reference[i])
            << label << ": request " << i
            << " absorbed a fault and answered wrong cells";
      } else {
        // Structured failure, attributable to the injection — never a
        // crash, never a leaked admission slot (checked after drain).
        EXPECT_GE(fault.faults_fired(), 1u)
            << label << ": request " << i << " failed without a fault: "
            << answer.status().ToString();
      }
    }
    EXPECT_EQ(server->budget()->used(), 0u)
        << label << ": admission budget leaked";

    // Heal the env (the one-shot fault may or may not have fired —
    // a mid-flight abort short-circuits the rest of that query's
    // schedule) and the same session must serve exact answers again.
    fault.Arm(FaultInjectionEnv::Options{});
    auto followup = server->Execute(requests[0]);
    ASSERT_TRUE(followup.ok())
        << label << ": follow-up on healed env failed: "
        << followup.status().ToString();
    EXPECT_EQ(FlattenAnswer(*followup), reference[0]) << label;
    EXPECT_EQ(server->budget()->used(), 0u) << label;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(ServerFaultSweepTest, ServedMissSpillBytesHaveOneSource) {
  // A served full-cube miss under the sweep's tight budget spills. The
  // query log, the process-wide sort metric and the per-stage EXPLAIN
  // bytes are three views of one count and must agree exactly.
  Counter* spill_metric = MetricRegistry::Global().GetCounter(
      "x3_sort_spill_bytes_total", "Bytes written to sort spill runs");
  const uint64_t metric_before = spill_metric->value();
  auto server = MakeServer(Env::Default());
  ServerRequest request;
  request.query = query_;
  request.algorithm = CubeAlgorithm::kTD;
  auto answer = server->Execute(request);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->computed);

  std::vector<QueryLogRecord> records = server->query_log().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const QueryLogRecord& record = records[0];
  uint64_t stage_bytes = 0;
  for (const QueryStageMs& stage : record.stages) stage_bytes += stage.bytes;
  EXPECT_GT(record.spill_bytes, 0u) << "the miss must spill";
  EXPECT_EQ(record.spill_bytes, spill_metric->value() - metric_before);
  EXPECT_EQ(record.spill_bytes, stage_bytes);
  EXPECT_EQ(server->budget()->used(), 0u);
}

}  // namespace
}  // namespace x3
