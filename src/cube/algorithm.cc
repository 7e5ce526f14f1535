#include "cube/algorithm.h"

#include <optional>

#include "cube/executor.h"
#include "cube/plan.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace x3 {

namespace {

Counter& ComputationsCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_cube_computations_total", "Completed cube computations");
  return *c;
}

Counter& ResultCellsCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_cube_result_cells_total",
      "Cells produced by completed cube computations");
  return *c;
}

}  // namespace

const char* CubeAlgorithmToString(CubeAlgorithm algo) {
  switch (algo) {
    case CubeAlgorithm::kReference:
      return "REFERENCE";
    case CubeAlgorithm::kCounter:
      return "COUNTER";
    case CubeAlgorithm::kBUC:
      return "BUC";
    case CubeAlgorithm::kBUCOpt:
      return "BUCOPT";
    case CubeAlgorithm::kBUCCust:
      return "BUCCUST";
    case CubeAlgorithm::kTD:
      return "TD";
    case CubeAlgorithm::kTDOpt:
      return "TDOPT";
    case CubeAlgorithm::kTDOptAll:
      return "TDOPTALL";
    case CubeAlgorithm::kTDCust:
      return "TDCUST";
  }
  return "?";
}

Result<CubeAlgorithm> ParseCubeAlgorithm(std::string_view name) {
  std::string upper;
  for (char c : name) {
    upper += (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
  }
  if (upper == "REFERENCE") return CubeAlgorithm::kReference;
  if (upper == "COUNTER") return CubeAlgorithm::kCounter;
  if (upper == "BUC") return CubeAlgorithm::kBUC;
  if (upper == "BUCOPT") return CubeAlgorithm::kBUCOpt;
  if (upper == "BUCCUST") return CubeAlgorithm::kBUCCust;
  if (upper == "TD") return CubeAlgorithm::kTD;
  if (upper == "TDOPT") return CubeAlgorithm::kTDOpt;
  if (upper == "TDOPTALL") return CubeAlgorithm::kTDOptAll;
  if (upper == "TDCUST") return CubeAlgorithm::kTDCust;
  return Status::InvalidArgument("unknown cube algorithm: " +
                                 std::string(name));
}

Result<CubeResult> ComputeCube(CubeAlgorithm algo, const FactTable& facts,
                               const CubeLattice& lattice,
                               const CubeComputeOptions& options) {
  if (!facts.finished()) {
    return Status::InvalidArgument("fact table not finished");
  }
  if (facts.num_axes() != lattice.num_axes()) {
    return Status::InvalidArgument(StringPrintf(
        "fact table has %zu axes but lattice has %zu", facts.num_axes(),
        lattice.num_axes()));
  }
  ExecutionContext local_ctx;
  ExecutionContext* ctx =
      options.exec != nullptr ? options.exec : &local_ctx;
  CubeComputeOptions effective = options;
  effective.exec = ctx;
  if (effective.parallelism == 0) {
    effective.parallelism = ThreadPool::DefaultConcurrency();
  }

  // Plan. CUST variants with no property map plan conservatively.
  std::optional<LatticeProperties> assume_nothing;
  const LatticeProperties* props = effective.properties;
  if (props == nullptr) {
    assume_nothing = LatticeProperties::AssumeNothing(lattice);
    props = &*assume_nothing;
  }
  CubePlan plan;
  {
    ScopedStageTimer timer(ctx->stats(), "plan", ctx->tracer());
    plan = BuildCubePlan(algo, lattice, *props);
  }

  Result<CubeResult> result = [&]() -> Result<CubeResult> {
    ScopedStageTimer timer(ctx->stats(), "compute", ctx->tracer());
    X3_RETURN_IF_ERROR(ctx->CheckInterrupted());
    switch (algo) {
      case CubeAlgorithm::kReference:
        return internal::ExecuteReference(plan, facts, lattice, effective,
                                          ctx);
      case CubeAlgorithm::kCounter:
        return internal::ExecuteCounter(plan, facts, lattice, effective, ctx);
      case CubeAlgorithm::kBUC:
      case CubeAlgorithm::kBUCOpt:
      case CubeAlgorithm::kBUCCust:
        return internal::ExecuteBottomUp(plan, facts, lattice, effective,
                                         ctx);
      case CubeAlgorithm::kTD:
      case CubeAlgorithm::kTDOpt:
      case CubeAlgorithm::kTDOptAll:
      case CubeAlgorithm::kTDCust:
        return internal::ExecuteTopDown(plan, facts, lattice, effective, ctx);
    }
    return Status::Internal(StringPrintf("unknown cube algorithm %d",
                                         static_cast<int>(algo)));
  }();
  if (result.ok() && options.min_count > 1) {
    // The bottom-up family prunes natively; this central filter makes
    // the iceberg semantics uniform (and is idempotent for BUC).
    result->ApplyIcebergFilter(options.min_count);
  }
  if (result.ok()) {
    ComputationsCounter().Increment();
    ResultCellsCounter().Increment(result->TotalCells());
  }
  return result;
}

Result<std::string> ExplainAnalyzeCube(CubeAlgorithm algo,
                                       const FactTable& facts,
                                       const CubeLattice& lattice,
                                       const CubeComputeOptions& options) {
  // A private context gives the run its own stats sink, so the rendered
  // actuals cover exactly this execution; the rest of the caller's
  // context (budget, temp files, cancellation, deadline, tracer) applies.
  ExecutionContext ctx(options.exec != nullptr ? options.exec->options()
                                               : ExecutionContext::Options{});
  CubeComputeOptions effective = options;
  effective.exec = &ctx;
  X3_ASSIGN_OR_RETURN(CubeResult result,
                      ComputeCube(algo, facts, lattice, effective));
  // Re-derive the plan the execution followed (same property-map
  // defaulting as ComputeCube; planning is pure, so the steps match).
  std::optional<LatticeProperties> assume_nothing;
  const LatticeProperties* props = options.properties;
  if (props == nullptr) {
    assume_nothing = LatticeProperties::AssumeNothing(lattice);
    props = &*assume_nothing;
  }
  CubePlan plan = BuildCubePlan(algo, lattice, *props);
  return ExplainCubePlanWithActuals(plan, lattice, *ctx.stats(), result);
}

}  // namespace x3
