#ifndef X3_X3_ENGINE_H_
#define X3_X3_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cube/algorithm.h"
#include "cube/cube_spec.h"
#include "util/result.h"
#include "xdb/database.h"

namespace x3 {

/// A compiled query materialized against a database: the relaxation
/// lattice plus the fact table, ready for any number of ComputeCube /
/// CubeViewStore passes. This is the unit the serving layer keeps per
/// distinct query shape — materialize once, compute and answer many
/// times.
struct PreparedQuery {
  CubeQuery query;
  CubeLattice lattice;
  FactTable facts;

  PreparedQuery(CubeQuery query_in, CubeLattice lattice_in,
                FactTable facts_in)
      : query(std::move(query_in)),
        lattice(std::move(lattice_in)),
        facts(std::move(facts_in)) {}
};

/// Result of executing an X^3 query end to end.
struct X3ExecutionResult {
  CubeLattice lattice;
  FactTable facts;
  CubeResult cube;
  /// Wall-clock split: pattern evaluation / fact materialization vs
  /// cube computation (the paper times only the latter).
  double materialize_seconds = 0;
  double cube_seconds = 0;
  /// Time spent building the CubePlan (part of cube_seconds).
  double plan_seconds = 0;
  /// Full per-stage breakdown ("materialize", "plan", "compute",
  /// "cuboid/<id>", "pass/<n>", "pipe/<n>", ...) from the execution
  /// context's stats sink.
  std::vector<StageTiming> stage_timings;

  X3ExecutionResult(CubeLattice lattice_in, FactTable facts_in,
                    CubeResult cube_in)
      : lattice(std::move(lattice_in)),
        facts(std::move(facts_in)),
        cube(std::move(cube_in)) {}
};

/// The top of the public API: parse an X^3 query, build the relaxation
/// lattice, materialize the fact table against a database, and compute
/// the cube with a chosen algorithm.
///
///   auto db = Database::Open({});
///   (*db)->LoadXmlFile("books.xml");
///   X3Engine engine(db->get());
///   auto result = engine.Execute(R"(
///     for $b in doc("books.xml")//publication,
///         $n in $b/author/name,
///         $y in $b/year
///     X^3 $b by $n (LND, SP, PC-AD), $y (LND)
///     return COUNT($b))", CubeAlgorithm::kBUC);
class X3Engine {
 public:
  /// `db` must outlive the engine and already contain the data (the
  /// doc("...") names in queries are treated as documentation; all
  /// loaded documents are queried).
  explicit X3Engine(Database* db) : db_(db) {}

  /// Parses + binds a query without executing it.
  Result<CubeQuery> Compile(std::string_view query_text) const;

  /// Builds the lattice and materializes the fact table for a compiled
  /// query without computing any cube. When `ctx` is non-null its
  /// cancellation token and deadline cover the materialization and the
  /// "materialize" stage timing lands in its stats sink. The returned
  /// fact table is NOT charged to any budget — the caller decides how
  /// long it lives (X3Server keeps it for the server's lifetime).
  Result<PreparedQuery> Prepare(const CubeQuery& query,
                                ExecutionContext* ctx = nullptr) const;

  /// Full pipeline with default options.
  Result<X3ExecutionResult> Execute(
      std::string_view query_text,
      CubeAlgorithm algorithm = CubeAlgorithm::kBUC) const {
    return Execute(query_text, algorithm, CubeComputeOptions{});
  }

  /// Full pipeline with explicit compute options. The aggregate
  /// function in `options` is overridden by the query's return clause.
  Result<X3ExecutionResult> Execute(std::string_view query_text,
                                    CubeAlgorithm algorithm,
                                    CubeComputeOptions options) const;

  /// Pipeline from an already-compiled query. When `options.exec` is
  /// set, its cancellation token and deadline cover the whole pipeline
  /// (materialization included), its budget is charged for the
  /// materialized fact table and its costs() count the computation;
  /// otherwise it runs unlimited and uncancellable. Stage timings land
  /// in X3ExecutionResult::stage_timings either way.
  ///
  /// `options.parallelism` applies to the cube-computation phase only
  /// (pattern evaluation and fact materialization stay single-threaded)
  /// and never changes the result: parallel runs are cell-identical to
  /// parallelism 1 (see CubeComputeOptions::parallelism).
  Result<X3ExecutionResult> ExecuteQuery(const CubeQuery& query,
                                         CubeAlgorithm algorithm,
                                         CubeComputeOptions options) const;

  /// EXPLAIN ANALYZE: compiles and runs the full pipeline, then renders
  /// the cube plan annotated with per-step actual time, rows and spill
  /// I/O (see ExplainAnalyzeCube in cube/algorithm.h). Costs a real
  /// execution.
  Result<std::string> ExplainAnalyze(
      std::string_view query_text, CubeAlgorithm algorithm,
      CubeComputeOptions options = CubeComputeOptions{}) const;

 private:
  Database* db_;
};

}  // namespace x3

#endif  // X3_X3_ENGINE_H_
