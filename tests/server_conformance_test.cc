#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cube/algorithm.h"
#include "gen/dblp_gen.h"
#include "gen/treebank_gen.h"
#include "gen/workload.h"
#include "schema/dtd_parser.h"
#include "server/x3_server.h"
#include "util/metrics.h"
#include "util/random.h"
#include "x3/engine.h"

namespace x3 {
namespace {

/// One query shape of the multi-tenant corpus: the compiled query, its
/// inferred properties, and a full reference cube to check server
/// answers against.
struct ShapeRef {
  CubeQuery query;
  LatticeProperties properties;
  CubeLattice lattice;
  FactTable facts;
  CubeResult reference;

  ShapeRef(CubeQuery query_in, LatticeProperties properties_in,
           CubeLattice lattice_in, FactTable facts_in,
           CubeResult reference_in)
      : query(std::move(query_in)),
        properties(std::move(properties_in)),
        lattice(std::move(lattice_in)),
        facts(std::move(facts_in)),
        reference(std::move(reference_in)) {}
};

/// Prepares `query` over `db`, infers its properties from `dtd` and
/// computes its kReference cube.
std::unique_ptr<ShapeRef> BuildShapeRef(Database* db, CubeQuery query,
                                        const std::string& dtd,
                                        const std::string& fact_tag) {
  auto schema = ParseDtd(dtd);
  EXPECT_TRUE(schema.ok());
  X3Engine engine(db);
  auto prepared = engine.Prepare(query);
  EXPECT_TRUE(prepared.ok());
  auto properties =
      InferLatticeProperties(*schema, prepared->lattice, fact_tag);
  EXPECT_TRUE(properties.ok());
  CubeComputeOptions options;
  options.aggregate = query.aggregate;
  auto reference = ComputeCube(CubeAlgorithm::kReference, prepared->facts,
                               prepared->lattice, options);
  EXPECT_TRUE(reference.ok());
  return std::make_unique<ShapeRef>(
      std::move(query), std::move(*properties),
      std::move(prepared->lattice), std::move(prepared->facts),
      std::move(*reference));
}

/// The shared multi-tenant corpus: Treebank trees and DBLP articles in
/// ONE database, with per-shape references. Built once for the suite
/// (the reference cubes are the expensive part).
class Corpus {
 public:
  static Corpus& Get() {
    static Corpus* corpus = new Corpus();
    return *corpus;
  }

  Database* db() { return db_.get(); }
  ShapeRef& treebank() { return *treebank_; }
  ShapeRef& dblp() { return *dblp_; }

 private:
  Corpus() {
    auto db = Database::Open({});
    EXPECT_TRUE(db.ok());
    db_ = std::move(*db);

    // Both summarizability properties fail on both corpora (missing and
    // repeated axis elements), so the server must rely on fact-id
    // roll-ups and algorithm downgrades — the hard case.
    ExperimentSetting setting;
    setting.num_axes = 3;
    setting.num_trees = 160;
    setting.coverage_holds = false;
    setting.disjointness_holds = false;
    setting.dense = true;
    setting.seed = 4242;
    TreebankConfig config = MakeTreebankConfig(setting);
    TreebankGenerator treebank_gen(config);
    EXPECT_TRUE(treebank_gen.LoadInto(db_.get(), setting.num_trees).ok());
    treebank_ = BuildShapeRef(db_.get(), MakeTreebankQuery(config),
                              treebank_gen.MatchingDtd(), TreebankRootTag());

    DblpConfig dblp_config;
    dblp_config.seed = 77;
    DblpGenerator dblp_gen(dblp_config);
    EXPECT_TRUE(dblp_gen.LoadInto(db_.get(), 250).ok());
    dblp_ = BuildShapeRef(db_.get(), MakeDblpQuery(), DblpDtd(), "article");
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ShapeRef> treebank_;
  std::unique_ptr<ShapeRef> dblp_;
};

bool CellsEqual(const CellMap& got, const CellMap& want) {
  if (got.size() != want.size()) return false;
  for (const auto& [key, state] : got) {
    auto it = want.find(key);
    if (it == want.end() || !(state == it->second)) return false;
  }
  return true;
}

/// The reference cells of one cuboid with the request's iceberg
/// threshold applied (the same rule as CubeResult::ApplyIcebergFilter).
CellMap ReferenceCells(const ShapeRef& shape, CuboidId cuboid,
                       int64_t min_count) {
  CellMap cells = shape.reference.cuboid(cuboid);
  if (min_count > 1) {
    for (auto it = cells.begin(); it != cells.end();) {
      it = it->second.count < min_count ? cells.erase(it) : std::next(it);
    }
  }
  return cells;
}

/// Every cuboid of `answer` must be cell-exact against the reference.
void ExpectAnswerExact(const ShapeRef& shape, const ServerAnswer& answer,
                       int64_t min_count, const std::string& context) {
  for (const auto& [cuboid, cells] : answer.cuboids) {
    EXPECT_TRUE(
        CellsEqual(cells, ReferenceCells(shape, cuboid, min_count)))
        << context << ": cuboid " << cuboid
        << (answer.computed ? " (computed)" : " (from cache)");
  }
}

ServerRequest MakeRequest(const ShapeRef& shape,
                          std::optional<CuboidId> target = std::nullopt) {
  ServerRequest request;
  request.query = shape.query;
  request.properties = &shape.properties;
  request.target = target;
  return request;
}

/// The seeded random mix of the issue: shapes x targets (including the
/// full cube) x algorithms (including unsafe ones that must be
/// downgraded) x iceberg thresholds x parallelism, submitted
/// concurrently against a small cache (eviction pressure) with a few
/// mid-flight cancellations, then checked cell-by-cell.
TEST(ServerConformanceTest, SeededRandomMixIsCellExact) {
  Corpus& corpus = Corpus::Get();
  const CubeAlgorithm kAlgorithms[] = {
      CubeAlgorithm::kCounter, CubeAlgorithm::kBUC,
      CubeAlgorithm::kBUCOpt,  CubeAlgorithm::kBUCCust,
      CubeAlgorithm::kTD,      CubeAlgorithm::kTDOpt,
      CubeAlgorithm::kTDOptAll, CubeAlgorithm::kTDCust,
  };
  const size_t kParallelism[] = {1, 2, 0};

  for (uint64_t seed : {11u, 23u}) {
    Random rng(seed);
    X3ServerOptions options;
    options.num_threads = 0;  // hardware concurrency
    options.cache_capacity_bytes = 32 << 10;  // small: forces evictions
    X3Server server(corpus.db(), options);

    struct Pending {
      std::shared_ptr<X3Server::Ticket> ticket;
      ShapeRef* shape;
      int64_t min_count;
      bool cancelled;
      std::string context;
    };
    std::vector<Pending> pending;
    for (int i = 0; i < 48; ++i) {
      ShapeRef& shape =
          rng.Bernoulli(0.5) ? corpus.treebank() : corpus.dblp();
      ServerRequest request = MakeRequest(shape);
      request.algorithm = kAlgorithms[rng.Uniform(8)];
      request.parallelism = kParallelism[rng.Uniform(3)];
      request.min_count = rng.Bernoulli(0.25) ? 2 : 0;
      if (!rng.Bernoulli(1.0 / 6)) {  // 1-in-6 asks for the full cube
        request.target =
            rng.Uniform(static_cast<uint32_t>(shape.lattice.num_cuboids()));
      }
      std::string context = "seed " + std::to_string(seed) + " request " +
                            std::to_string(i) + " algo " +
                            CubeAlgorithmToString(request.algorithm);
      bool cancel = rng.Bernoulli(0.12);
      int64_t min_count = request.min_count;
      auto ticket = server.Submit(std::move(request));
      if (cancel) {
        // Trips the token after a random number of further polls: some
        // land mid-computation, some after completion — both must be
        // handled cleanly.
        ticket->CancelAfterChecks(
            static_cast<int64_t>(rng.Uniform(4000)));
      }
      pending.push_back(
          {std::move(ticket), &shape, min_count, cancel, context});
    }

    size_t ok_answers = 0;
    for (Pending& p : pending) {
      Result<ServerAnswer> answer = p.ticket->Wait();
      if (answer.ok()) {
        ++ok_answers;
        ExpectAnswerExact(*p.shape, *answer, p.min_count, p.context);
      } else {
        EXPECT_TRUE(p.cancelled) << p.context << ": unexpected failure "
                                 << answer.status().ToString();
        EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
            << p.context;
      }
    }
    // Cancellation probability is low; the bulk of the mix must have
    // been answered (and checked) for the sweep to mean anything.
    EXPECT_GE(ok_answers, 36u) << "seed " << seed;
    EXPECT_EQ(server.budget()->used(), 0u)
        << "admission reservations leaked";
  }
}

TEST(ServerConformanceTest, ExactHitThenRollupServeFromCache) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ShapeRef& shape = corpus.dblp();
  CuboidId finest = shape.lattice.FinestCuboid();

  ServerRequest cold = MakeRequest(shape);
  cold.target = finest;
  auto first = server.Execute(cold);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->computed);
  ExpectAnswerExact(shape, *first, 0, "cold");

  // Same cuboid again: an exact view hit, no recompute.
  auto second = server.Execute(MakeRequest(shape, finest));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->computed);
  EXPECT_EQ(second->exact_hits, 1u);
  ExpectAnswerExact(shape, *second, 0, "exact hit");

  // A coarser cuboid: answered by roll-up from the cached finest view
  // (with fact ids, since DBLP's author axis is not disjoint).
  ServerRequest coarse = MakeRequest(shape);
  coarse.target = shape.lattice.TopoOrder().back();
  auto third = server.Execute(coarse);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->computed);
  EXPECT_EQ(third->rollup_answers, 1u);
  ExpectAnswerExact(shape, *third, 0, "rollup");
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, EvictionPressureKeepsAnswersExact) {
  Corpus& corpus = Corpus::Get();
  X3ServerOptions options;
  options.cache_capacity_bytes = 1;  // every insert evicts its peers
  X3Server server(corpus.db(), options);
  // Ping-pong between the two tenants: each miss fills that shape's
  // finest view, which displaces the other shape's under the 1-byte
  // capacity, so the next query of the displaced tenant misses again.
  for (int round = 0; round < 3; ++round) {
    for (ShapeRef* shape : {&corpus.treebank(), &corpus.dblp()}) {
      for (CuboidId target :
           {shape->lattice.FinestCuboid(), shape->lattice.TopoOrder().back()}) {
        auto answer = server.Execute(MakeRequest(*shape, target));
        ASSERT_TRUE(answer.ok());
        ExpectAnswerExact(*shape, *answer, 0, "eviction round");
      }
    }
  }
  EXPECT_GT(server.cache_evictions(), 0u);
  EXPECT_LE(server.cache_views(), 2u);
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, CacheFlushForcesRecompute) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ShapeRef& shape = corpus.treebank();
  CuboidId finest = shape.lattice.FinestCuboid();
  ASSERT_TRUE(server.Execute(MakeRequest(shape, finest)).ok());
  EXPECT_GT(server.cache_views(), 0u);
  server.FlushCacheForTest();
  EXPECT_EQ(server.cache_views(), 0u);
  auto answer = server.Execute(MakeRequest(shape, finest));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->computed) << "flushed cache cannot serve hits";
  ExpectAnswerExact(shape, *answer, 0, "after flush");
}

TEST(ServerConformanceTest, UnsafeAlgorithmIsDowngraded) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ShapeRef& shape = corpus.treebank();  // neither property holds
  ServerRequest request = MakeRequest(shape);
  request.algorithm = CubeAlgorithm::kTDOptAll;
  request.use_cache = false;
  auto answer = server.Execute(std::move(request));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->computed);
  EXPECT_EQ(answer->algorithm_used, CubeAlgorithm::kTDCust)
      << "TDOPTALL's assumptions fail on this corpus";
  ExpectAnswerExact(shape, *answer, 0, "downgraded");
}

TEST(ServerConformanceTest, AdmissionDenialUnderTinyBudget) {
  Corpus& corpus = Corpus::Get();
  X3ServerOptions options;
  options.admission_budget_bytes = 1;  // no shape's fact table fits
  X3Server server(corpus.db(), options);
  auto answer = server.Execute(MakeRequest(corpus.dblp()));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, DeadlineExceededSurfaces) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ServerRequest request = MakeRequest(corpus.treebank());
  request.deadline_seconds = 1e-12;  // expired before the first check
  auto answer = server.Execute(std::move(request));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, ImmediateCancellationFailsCleanly) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ServerRequest request = MakeRequest(corpus.treebank());
  auto ticket = server.Submit(std::move(request));
  ticket->CancelAfterChecks(0);  // first poll trips
  auto answer = ticket->Wait();
  // Deterministically cancelled unless the worker already finished
  // every poll before the arm landed — then the answer must be exact.
  if (answer.ok()) {
    ExpectAnswerExact(corpus.treebank(), *answer, 0, "raced cancel");
  } else {
    EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, InvalidTargetRejected) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ShapeRef& shape = corpus.dblp();
  auto answer =
      server.Execute(MakeRequest(shape, shape.lattice.num_cuboids()));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerConformanceTest, CompileErrorSurfaces) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  ServerRequest request;
  request.query_text = "for $x in nonsense CUBE please";
  auto answer = server.Execute(std::move(request));
  EXPECT_FALSE(answer.ok());
}

TEST(ServerConformanceTest, ConcurrentSameShapeBuildsOnce) {
  Corpus& corpus = Corpus::Get();
  X3ServerOptions options;
  options.num_threads = 0;
  X3Server server(corpus.db(), options);
  ShapeRef& shape = corpus.dblp();
  std::vector<std::shared_ptr<X3Server::Ticket>> tickets;
  for (int i = 0; i < 12; ++i) {
    tickets.push_back(
        server.Submit(MakeRequest(shape, shape.lattice.FinestCuboid())));
  }
  for (auto& ticket : tickets) {
    auto answer = ticket->Wait();
    ASSERT_TRUE(answer.ok());
    ExpectAnswerExact(shape, *answer, 0, "concurrent build");
  }
  EXPECT_EQ(server.num_shapes(), 1u)
      << "concurrent first queries must share one shape build";
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerConformanceTest, TicketWaitConsumesOnce) {
  Corpus& corpus = Corpus::Get();
  X3Server server(corpus.db(), {});
  auto ticket = server.Submit(
      MakeRequest(corpus.dblp(), corpus.dblp().lattice.FinestCuboid()));
  ASSERT_TRUE(ticket->Wait().ok());
  EXPECT_TRUE(ticket->done());
  auto again = ticket->Wait();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInternal);
}

// --- Miss path: a single-cuboid miss builds the views it caches, a
// full-cube miss computes the lattice ---

uint64_t CounterValue(const char* name) {
  return MetricRegistry::Global().GetCounter(name, "")->value();
}

QueryLogRecord RecordOf(const X3Server& server, uint64_t qid) {
  for (QueryLogRecord& record : server.query_log().Snapshot()) {
    if (record.qid == qid) return record;
  }
  ADD_FAILURE() << "no query-log record for qid " << qid;
  return {};
}

const QueryStageMs* FindStage(const QueryLogRecord& record,
                              const std::string& label) {
  for (const QueryStageMs& stage : record.stages) {
    if (stage.label == label) return &stage;
  }
  return nullptr;
}

/// For every cuboid of `shape`, with and without an iceberg threshold,
/// a targeted miss on a flushed cache runs no ComputeCube and no
/// downgrade, reports kReference, fills exactly the finest and target
/// views and answers cell for cell like the reference.
void ExpectTargetedMissesBuildViews(Database* db, const ShapeRef& shape,
                                    const std::string& name) {
  X3ServerOptions options;
  options.num_threads = 1;
  X3Server server(db, options);
  const CuboidId finest = shape.lattice.FinestCuboid();
  for (int64_t min_count : {0, 2}) {
    for (CuboidId target = 0; target < shape.lattice.num_cuboids();
         ++target) {
      std::string context = name + " cuboid " + std::to_string(target) +
                            " min_count " + std::to_string(min_count);
      server.FlushCacheForTest();
      uint64_t computations = CounterValue("x3_cube_computations_total");
      uint64_t downgrades = CounterValue("x3_server_plan_downgrades_total");
      ServerRequest request = MakeRequest(shape, target);
      request.algorithm = CubeAlgorithm::kTDOptAll;  // unsafe: not used
      request.min_count = min_count;
      auto miss = server.Execute(std::move(request));
      ASSERT_TRUE(miss.ok()) << context << ": " << miss.status();
      EXPECT_TRUE(miss->computed) << context;
      EXPECT_EQ(miss->algorithm_used, CubeAlgorithm::kReference) << context;
      EXPECT_EQ(CounterValue("x3_cube_computations_total"), computations)
          << context;
      EXPECT_EQ(CounterValue("x3_server_plan_downgrades_total"), downgrades)
          << context;
      ExpectAnswerExact(shape, *miss, min_count, context);
      EXPECT_EQ(server.cache_views(), target == finest ? 1u : 2u) << context;
      for (CuboidId filled : {finest, target}) {
        auto hit = server.Execute(MakeRequest(shape, filled));
        ASSERT_TRUE(hit.ok()) << context;
        EXPECT_FALSE(hit->computed) << context << ", cuboid " << filled;
        EXPECT_EQ(hit->exact_hits, 1u) << context << ", cuboid " << filled;
        ExpectAnswerExact(shape, *hit, 0, context);
      }
    }
  }
  EXPECT_EQ(server.budget()->used(), 0u) << name;
}

TEST(ServerMissPathTest, TargetedColdMissesBuildViewsWithoutComputing) {
  Corpus& corpus = Corpus::Get();
  ExpectTargetedMissesBuildViews(corpus.db(), corpus.treebank(), "treebank");
  ExpectTargetedMissesBuildViews(corpus.db(), corpus.dblp(), "dblp");
}

TEST(ServerMissPathTest, DisjointEverywhereShapeBuildsIdLessViews) {
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok());
  ExperimentSetting setting;
  setting.num_axes = 3;
  setting.num_trees = 160;
  setting.coverage_holds = false;
  setting.disjointness_holds = true;
  setting.dense = true;
  setting.seed = 515;
  TreebankConfig config = MakeTreebankConfig(setting);
  TreebankGenerator gen(config);
  ASSERT_TRUE(gen.LoadInto(db->get(), setting.num_trees).ok());
  auto shape = BuildShapeRef(db->get(), MakeTreebankQuery(config),
                             gen.MatchingDtd(), TreebankRootTag());
  // The server keeps id-less views exactly when this holds.
  ASSERT_TRUE(shape->properties.DisjointEverywhere(shape->lattice));
  ExpectTargetedMissesBuildViews(db->get(), *shape, "disjoint treebank");
}

TEST(ServerMissPathTest, PcadTargetsBuildTheirOwnViews) {
  TreebankConfig config;  // as in cube_test's structural-relaxation sweep
  config.seed = 72;
  config.num_axes = 3;
  config.value_cardinality = 8;
  config.nesting_probability = 0.4;
  config.repeat_probability = 0.2;
  config.missing_probability = 0.1;
  TreebankGenerator gen(config);
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(gen.LoadInto(db->get(), 200).ok());
  auto shape = BuildShapeRef(
      db->get(),
      MakeTreebankQuery(config, RelaxationSet::Of({RelaxationType::kLND,
                                                   RelaxationType::kPCAD})),
      gen.MatchingDtd(), TreebankRootTag());
  ASSERT_EQ(shape->lattice.num_cuboids(), 27u);
  ExpectTargetedMissesBuildViews(db->get(), *shape, "pcad treebank");

  // Views roll up only across LND edges: with just the finest view
  // cached, a cuboid holding an axis at its PC-AD state still misses.
  X3Server server(db->get(), {});
  const CuboidId finest = shape->lattice.FinestCuboid();
  ASSERT_TRUE(server.Execute(MakeRequest(*shape, finest)).ok());
  size_t relaxed = 0;
  for (CuboidId target = 0; target < shape->lattice.num_cuboids();
       ++target) {
    bool pcad = false;
    for (size_t axis = 0; axis < shape->lattice.num_axes(); ++axis) {
      AxisStateId state = shape->lattice.StateOf(target, axis);
      pcad = pcad || (state != shape->lattice.StateOf(finest, axis) &&
                      shape->lattice.axis(axis).state(state)
                          .grouping_present());
    }
    if (!pcad) continue;
    ++relaxed;
    server.FlushCacheForTest();
    ASSERT_TRUE(server.Execute(MakeRequest(*shape, finest)).ok());
    auto answer = server.Execute(MakeRequest(*shape, target));
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(answer->computed) << "cuboid " << target;
    ExpectAnswerExact(*shape, *answer, 0, "pcad after finest");
  }
  EXPECT_GT(relaxed, 0u);
}

TEST(ServerMissPathTest, FullCubeMissComputesOnceAfterDowngrade) {
  Corpus& corpus = Corpus::Get();
  ShapeRef& shape = corpus.treebank();  // neither property holds
  X3Server server(corpus.db(), {});
  for (CubeAlgorithm requested :
       {CubeAlgorithm::kTDOptAll, CubeAlgorithm::kBUC}) {
    std::string context = CubeAlgorithmToString(requested);
    server.FlushCacheForTest();
    uint64_t computations = CounterValue("x3_cube_computations_total");
    ServerRequest request = MakeRequest(shape);
    request.algorithm = requested;
    auto ticket = server.Submit(std::move(request));
    auto answer = ticket->Wait();
    ASSERT_TRUE(answer.ok()) << context;
    EXPECT_TRUE(answer->computed) << context;
    EXPECT_EQ(CounterValue("x3_cube_computations_total"), computations + 1)
        << context;
    bool unsafe = requested == CubeAlgorithm::kTDOptAll;
    EXPECT_EQ(answer->algorithm_used,
              unsafe ? CubeAlgorithm::kTDCust : requested)
        << context;
    QueryLogRecord record = RecordOf(server, ticket->query_id());
    EXPECT_EQ(record.downgraded, unsafe) << context;
    EXPECT_NE(FindStage(record, "compute"), nullptr) << context;
    EXPECT_NE(FindStage(record, "cache-fill"), nullptr) << context;
    EXPECT_EQ(server.cache_views(), 1u) << context << ": the finest view";
    ExpectAnswerExact(shape, *answer, 0, context);
  }
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST(ServerMissPathTest, InterruptedViewBuildPublishesNothing) {
  Corpus& corpus = Corpus::Get();
  ShapeRef& shape = corpus.dblp();
  const CuboidId target = shape.lattice.TopoOrder()[1];
  ASSERT_NE(target, shape.lattice.FinestCuboid());
  X3ServerOptions options;
  options.num_threads = 1;
  X3Server server(corpus.db(), options);
  // Build the shape up front: the miss's polls are then the cache
  // lookup's and the view build's.
  ASSERT_TRUE(server.Execute(MakeRequest(shape, target)).ok());

  // One cold miss for `target`. A blocker holds the single worker until
  // the miss's ticket is armed and the blocker is cancelled, so a trip
  // count starts at the miss's first poll; the blocker unwinds in its
  // hold, before any cache access.
  auto cold_miss = [&](std::optional<int64_t> cancel_after,
                       std::optional<double> deadline) {
    server.FlushCacheForTest();
    ServerRequest blocker = MakeRequest(shape, target);
    blocker.debug_hold_seconds = 60;
    auto held = server.Submit(std::move(blocker));
    ServerRequest request = MakeRequest(shape, target);
    request.deadline_seconds = deadline;
    auto ticket = server.Submit(std::move(request));
    if (cancel_after.has_value()) ticket->CancelAfterChecks(*cancel_after);
    held->Cancel();
    EXPECT_EQ(held->Wait().status().code(), StatusCode::kCancelled);
    Result<ServerAnswer> answer = ticket->Wait();
    return std::make_pair(RecordOf(server, ticket->query_id()),
                          std::move(answer));
  };
  auto expect_nothing_published = [&](const std::string& context) {
    EXPECT_EQ(server.cache_views(), 0u) << context;
    EXPECT_EQ(server.budget()->used(), 0u) << context;
    // A view published without cache accounting would answer this.
    auto again = server.Execute(MakeRequest(shape, target));
    ASSERT_TRUE(again.ok()) << context;
    EXPECT_TRUE(again->computed) << context << ": a view was published";
    ExpectAnswerExact(shape, *again, 0, context);
  };

  // Sweep the trip point over the miss's polls until the miss finishes.
  int64_t first_success = -1;
  size_t cancelled_in_fill = 0;
  for (int64_t k = 0; first_success < 0; k += k < 4 ? 1 : 7) {
    ASSERT_LT(k, 100000) << "the miss never completed";
    std::string context = "cancel after " + std::to_string(k) + " checks";
    auto [record, answer] = cold_miss(k, std::nullopt);
    if (answer.ok()) {
      first_success = k;
      ExpectAnswerExact(shape, *answer, 0, context);
      continue;
    }
    ASSERT_EQ(answer.status().code(), StatusCode::kCancelled) << context;
    if (FindStage(record, "cache-fill") != nullptr) ++cancelled_in_fill;
    expect_nothing_published(context);
  }
  // The build polls once per fact of each view it builds.
  EXPECT_GT(first_success, static_cast<int64_t>(shape.facts.size()));
  EXPECT_GT(cancelled_in_fill, 0u);

  // Deadlines that expire partway through the miss, timed unhindered.
  double miss_seconds = 1e9;
  for (int i = 0; i < 3; ++i) {
    auto [record, answer] = cold_miss(std::nullopt, std::nullopt);
    ASSERT_TRUE(answer.ok());
    miss_seconds = std::min(miss_seconds, record.latency_seconds);
  }
  size_t expired_in_fill = 0;
  for (double fraction : {0.1, 0.25, 0.5, 0.75}) {
    std::string context =
        "deadline at " + std::to_string(fraction) + " of the miss";
    auto [record, answer] = cold_miss(std::nullopt, miss_seconds * fraction);
    if (answer.ok()) {
      ExpectAnswerExact(shape, *answer, 0, context);
      continue;
    }
    ASSERT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
        << context;
    if (FindStage(record, "cache-fill") != nullptr) ++expired_in_fill;
    expect_nothing_published(context);
  }
  EXPECT_GT(expired_in_fill, 0u);
}

// --- Write/read interleaving: the transactional write lane ---
//
// These tests own a private database (the shared Corpus above is
// immutable — its reference cubes would be invalidated by writes).

constexpr const char* kWriteQuery = R"(
for $b in doc("pubs.xml")//publication,
    $n in $b/author/name,
    $y in $b/year
X^3 $b by $n (LND), $y (LND)
return COUNT($b))";

constexpr size_t kWriteBasePubs = 30;
constexpr size_t kPubsPerBatch = 2;

std::string WritePubDoc(size_t i) {
  return "<database><publication><author><name>author" +
         std::to_string(i % 7) + "</name></author><year>" +
         std::to_string(2000 + i % 5) + "</year></publication></database>";
}

std::string WriteBaseCorpus() {
  std::string xml = "<database>";
  for (size_t i = 0; i < kWriteBasePubs; ++i) {
    xml += "<publication><author><name>author";
    xml += std::to_string(i % 7);
    xml += "</name></author><year>";
    xml += std::to_string(2000 + i % 5);
    xml += "</year></publication>";
  }
  xml += "</database>";
  return xml;
}

ServerRequest WriteShapeRequest(std::optional<CuboidId> target = std::nullopt,
                                bool use_cache = true) {
  ServerRequest request;
  request.query_text = kWriteQuery;
  request.target = target;
  request.use_cache = use_cache;
  return request;
}

/// Sum of counts in one cuboid's cells. Every publication binds exactly
/// one author and one year, so in a consistent snapshot this equals the
/// fact count for EVERY cuboid — which makes a torn batch (some cuboids
/// pre-batch, some post-batch) detectable inside a single answer.
int64_t CuboidTotal(const CellMap& cells) {
  int64_t total = 0;
  for (const auto& [key, state] : cells) total += state.count;
  return total;
}

/// Checks intra-answer consistency and returns the answer's fact count
/// (-1 and an error string when the cuboid totals disagree).
int64_t ConsistentTotal(const ServerAnswer& answer, std::string* error) {
  int64_t total = -1;
  for (const auto& [cuboid, cells] : answer.cuboids) {
    int64_t t = CuboidTotal(cells);
    if (total == -1) total = t;
    if (t != total) {
      *error = "cuboid " + std::to_string(cuboid) + " totals " +
               std::to_string(t) + " but a sibling totals " +
               std::to_string(total) + " — reader saw a torn batch";
      return -1;
    }
  }
  return total;
}

/// Full-cube answer must be cell-exact against a reference computed
/// directly from the database (only valid while no write is in flight).
void ExpectAnswerMatchesDatabase(Database* db, const ServerAnswer& answer,
                                 const std::string& context) {
  X3Engine engine(db);
  auto exec = engine.Execute(kWriteQuery, CubeAlgorithm::kReference);
  ASSERT_TRUE(exec.ok()) << context << ": " << exec.status();
  for (const auto& [cuboid, cells] : answer.cuboids) {
    EXPECT_TRUE(CellsEqual(cells, exec->cube.cuboid(cuboid)))
        << context << ": cuboid " << cuboid << " diverges from the database";
  }
}

class ServerWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open({});
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->LoadXmlString(WriteBaseCorpus()).ok());
  }

  std::vector<std::string> MakeBatch(size_t round) {
    std::vector<std::string> docs;
    for (size_t d = 0; d < kPubsPerBatch; ++d) {
      docs.push_back(WritePubDoc(kWriteBasePubs + round * kPubsPerBatch + d));
    }
    return docs;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ServerWriteTest, CommitsAreAtomicallyVisibleToConcurrentReaders) {
  X3ServerOptions options;
  options.num_threads = 4;
  X3Server server(db_.get(), options);

  // Warm the shape so readers race the write lane, not the first build.
  auto warm = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(warm.ok()) << warm.status();

  constexpr size_t kReaders = 3;
  constexpr size_t kBatches = 5;
  std::atomic<bool> done{false};
  struct ReaderLog {
    std::vector<std::string> errors;
    size_t answers = 0;
  };
  std::vector<ReaderLog> logs(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLog& log = logs[r];
      int64_t last_total = -1;
      bool use_cache = r % 2 == 0;
      while (!done.load(std::memory_order_acquire)) {
        auto answer = server.Execute(WriteShapeRequest(std::nullopt,
                                                       use_cache));
        if (!answer.ok()) {
          log.errors.push_back("query failed: " + answer.status().ToString());
          return;
        }
        ++log.answers;
        std::string error;
        int64_t total = ConsistentTotal(*answer, &error);
        if (total < 0) {
          log.errors.push_back(error);
          return;
        }
        // All-or-nothing: the visible fact count is always base plus a
        // whole number of batches.
        int64_t over_base = total - static_cast<int64_t>(kWriteBasePubs);
        if (over_base < 0 ||
            over_base > static_cast<int64_t>(kBatches * kPubsPerBatch) ||
            over_base % static_cast<int64_t>(kPubsPerBatch) != 0) {
          log.errors.push_back("partial batch visible: total " +
                               std::to_string(total));
          return;
        }
        // Snapshots are swapped, never rolled back: totals per reader
        // are monotone.
        if (total < last_total) {
          log.errors.push_back("total went backwards: " +
                               std::to_string(last_total) + " then " +
                               std::to_string(total));
          return;
        }
        last_total = total;
      }
    });
  }

  uint64_t last_lsn = 0;
  for (size_t round = 0; round < kBatches; ++round) {
    auto result = server.CommitDocuments(MakeBatch(round));
    ASSERT_TRUE(result.ok()) << "batch " << round << ": " << result.status();
    EXPECT_EQ(result->documents, kPubsPerBatch) << "batch " << round;
    EXPECT_GT(result->commit_lsn, last_lsn) << "batch " << round;
    last_lsn = result->commit_lsn;
    EXPECT_EQ(result->shapes_updated, 1u) << "batch " << round;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  size_t total_answers = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    for (const std::string& error : logs[r].errors) {
      ADD_FAILURE() << "reader " << r << ": " << error;
    }
    total_answers += logs[r].answers;
  }
  EXPECT_GT(total_answers, 0u) << "no reader completed a single answer";

  // Quiescent: the final state is every batch, exactly.
  auto final_answer = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(final_answer.ok());
  std::string error;
  EXPECT_EQ(ConsistentTotal(*final_answer, &error),
            static_cast<int64_t>(kWriteBasePubs + kBatches * kPubsPerBatch))
      << error;
  ExpectAnswerMatchesDatabase(db_.get(), *final_answer, "final");
  EXPECT_EQ(server.budget()->used(), 0u);
  EXPECT_TRUE(server.Checkpoint().ok());
}

TEST_F(ServerWriteTest, PostCommitQueriesSeeTheBatchExactly) {
  X3Server server(db_.get(), {});
  auto warm = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(warm.ok()) << warm.status();
  // The WAL owns the commit count: one per committed batch, however many
  // layers the commit passes through.
  Counter* commits = MetricRegistry::Global().GetCounter(
      "x3_wal_commits_total", "Transactions committed through the WAL");
  const uint64_t commits_before = commits->value();

  constexpr size_t kRounds = 3;
  for (size_t round = 0; round < kRounds; ++round) {
    auto result = server.CommitDocuments(MakeBatch(round));
    ASSERT_TRUE(result.ok()) << result.status();
    // The warm shape's views were maintained, not dropped: the write
    // either patched them or recomputed them, but did something.
    EXPECT_GE(result->delta.views_patched + result->delta.views_recomputed,
              1u)
        << "round " << round;

    auto answer = server.Execute(WriteShapeRequest());
    ASSERT_TRUE(answer.ok()) << answer.status();
    std::string error;
    EXPECT_EQ(ConsistentTotal(*answer, &error),
              static_cast<int64_t>(kWriteBasePubs +
                                   (round + 1) * kPubsPerBatch))
        << "round " << round << " " << error;
    ExpectAnswerMatchesDatabase(db_.get(), *answer,
                                "round " + std::to_string(round));
  }
  EXPECT_EQ(commits->value() - commits_before, kRounds);
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST_F(ServerWriteTest, CacheStaysCoherentAcrossSnapshotSwaps) {
  X3Server server(db_.get(), {});

  // Fill the cache and prove it serves hits.
  auto probe = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(probe.ok());
  CuboidId finest = 0;
  {
    auto cold = server.Execute(WriteShapeRequest(finest));
    ASSERT_TRUE(cold.ok());
    auto hit = server.Execute(WriteShapeRequest(finest));
    ASSERT_TRUE(hit.ok());
    EXPECT_FALSE(hit->computed) << "second identical query must hit";
  }

  // The swap must retire every cached view of the old snapshot: a
  // post-commit query answered from cache with pre-batch cells is the
  // staleness bug this test exists for.
  auto result = server.CommitDocuments(MakeBatch(0));
  ASSERT_TRUE(result.ok()) << result.status();
  auto after = server.Execute(WriteShapeRequest(finest));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(CuboidTotal(after->cuboids.at(0).second),
            static_cast<int64_t>(kWriteBasePubs + kPubsPerBatch))
      << (after->computed ? "(computed)" : "(served from cache)");

  // And the maintained views keep serving hits — exactly.
  auto again = server.Execute(WriteShapeRequest(finest));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->computed)
      << "maintained views must be cached after the swap";
  auto full = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(full.ok());
  ExpectAnswerMatchesDatabase(db_.get(), *full, "after swap");
  EXPECT_EQ(server.budget()->used(), 0u);
}

TEST_F(ServerWriteTest, FailedDocumentRollsBackWholeBatch) {
  X3Server server(db_.get(), {});
  auto warm = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(warm.ok());

  auto bad = server.CommitDocuments(
      {WritePubDoc(kWriteBasePubs), "<publication><unclosed>"});
  ASSERT_FALSE(bad.ok()) << "malformed document must fail the batch";

  // Nothing of the batch is visible — not even the valid document.
  auto answer = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(answer.ok());
  std::string error;
  EXPECT_EQ(ConsistentTotal(*answer, &error),
            static_cast<int64_t>(kWriteBasePubs))
      << error;

  // The lane is not wedged: a clean batch right after commits fine.
  auto good = server.CommitDocuments(MakeBatch(0));
  ASSERT_TRUE(good.ok()) << good.status();
  auto after = server.Execute(WriteShapeRequest());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ConsistentTotal(*after, &error),
            static_cast<int64_t>(kWriteBasePubs + kPubsPerBatch))
      << error;
  ExpectAnswerMatchesDatabase(db_.get(), *after, "after rollback");
  EXPECT_EQ(server.budget()->used(), 0u);
}

}  // namespace
}  // namespace x3
