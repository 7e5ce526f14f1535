#include "x3/engine.h"

#include <optional>
#include <utility>

#include "util/timer.h"
#include "x3/binder.h"
#include "x3/parser.h"

namespace x3 {

Result<CubeQuery> X3Engine::Compile(std::string_view query_text) const {
  X3_ASSIGN_OR_RETURN(AstQuery ast, ParseX3Query(query_text));
  return BindX3Query(ast);
}

Result<PreparedQuery> X3Engine::Prepare(const CubeQuery& query,
                                        ExecutionContext* ctx) const {
  ExecutionContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  X3_RETURN_IF_ERROR(ctx->CheckInterrupted());
  ScopedStageTimer stage(ctx->stats(), "materialize", ctx->tracer());
  X3_ASSIGN_OR_RETURN(CubeLattice lattice, BuildCubeLattice(query));
  X3_ASSIGN_OR_RETURN(FactTable facts, BuildFactTable(*db_, query, lattice));
  stage.AddRows(facts.size());
  return PreparedQuery(query, std::move(lattice), std::move(facts));
}

Result<X3ExecutionResult> X3Engine::Execute(std::string_view query_text,
                                            CubeAlgorithm algorithm,
                                            CubeComputeOptions options) const {
  X3_ASSIGN_OR_RETURN(CubeQuery query, Compile(query_text));
  return ExecuteQuery(query, algorithm, options);
}

Result<X3ExecutionResult> X3Engine::ExecuteQuery(
    const CubeQuery& query, CubeAlgorithm algorithm,
    CubeComputeOptions options) const {
  options.aggregate = query.aggregate;
  if (query.min_count > options.min_count) {
    options.min_count = query.min_count;
  }

  // One context for the whole pipeline: the caller's, or a local
  // unlimited, uncancellable one.
  ExecutionContext local_ctx;
  ExecutionContext* ctx =
      options.exec != nullptr ? options.exec : &local_ctx;
  options.exec = ctx;
  MemoryBudget* budget = ctx->budget();

  Timer timer;
  // Prepare records the "materialize" stage (with the fact count as its
  // row detail) and opens the pipeline's first trace span.
  Result<PreparedQuery> prepared = Prepare(query, ctx);
  X3_RETURN_IF_ERROR(prepared.status());
  CubeLattice lattice = std::move(prepared->lattice);
  FactTable facts = std::move(prepared->facts);
  double materialize_seconds = timer.ElapsedSeconds();

  // The materialized fact table is working memory of the query: charge
  // it for the duration of the cube computation so the budget's peak
  // reflects the real footprint and budgeted algorithms see what is
  // left.
  std::optional<ScopedReservation> facts_reservation;
  if (budget != nullptr) {
    facts_reservation.emplace(budget, facts.ApproxBytes());
  }
  X3_RETURN_IF_ERROR(ctx->CheckInterrupted());

  timer.Reset();
  X3_ASSIGN_OR_RETURN(CubeResult cube,
                      ComputeCube(algorithm, facts, lattice, options));
  double cube_seconds = timer.ElapsedSeconds();

  X3ExecutionResult result(std::move(lattice), std::move(facts),
                           std::move(cube));
  result.materialize_seconds = materialize_seconds;
  result.cube_seconds = cube_seconds;
  result.plan_seconds = ctx->stats()->TotalSeconds("plan");
  result.stage_timings = ctx->stats()->timings();
  return result;
}

Result<std::string> X3Engine::ExplainAnalyze(std::string_view query_text,
                                             CubeAlgorithm algorithm,
                                             CubeComputeOptions options) const {
  X3_ASSIGN_OR_RETURN(CubeQuery query, Compile(query_text));
  options.aggregate = query.aggregate;
  if (query.min_count > options.min_count) {
    options.min_count = query.min_count;
  }
  X3_ASSIGN_OR_RETURN(CubeLattice lattice, BuildCubeLattice(query));
  X3_ASSIGN_OR_RETURN(FactTable facts, BuildFactTable(*db_, query, lattice));
  return ExplainAnalyzeCube(algorithm, facts, lattice, options);
}

}  // namespace x3
