#ifndef X3_CUBE_ALGORITHM_H_
#define X3_CUBE_ALGORITHM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "cube/cube_result.h"
#include "cube/fact_table.h"
#include "cube/plan.h"
#include "relax/cube_lattice.h"
#include "schema/summarizability.h"
#include "storage/temp_file.h"
#include "util/exec.h"
#include "util/memory_budget.h"
#include "util/result.h"

namespace x3 {

/// The cube-computation algorithms evaluated in the paper (§4).
enum class CubeAlgorithm : uint8_t {
  /// Trusted per-cuboid evaluator used as the correctness oracle (not
  /// in the paper; unbounded memory).
  kReference,
  /// Counter-based single/multi-pass algorithm (§3.3).
  kCounter,
  /// XML-aware bottom-up with overlap handling (§3.4, BUC).
  kBUC,
  /// Bottom-up assuming disjointness globally (BUCOPT). Produces wrong
  /// results when the assumption fails — as in the paper's Fig. 9 runs.
  kBUCOpt,
  /// Bottom-up exploiting disjointness only where the property map
  /// proves it (BUCCUST, §4.5) — always correct.
  kBUCCust,
  /// Top-down, every cuboid recomputed from base with fact ids (§3.5).
  kTD,
  /// Top-down assuming disjointness globally (TDOPT): shared sort
  /// pipes, no fact-id tracking. Wrong under overlap.
  kTDOpt,
  /// Top-down assuming disjointness AND total coverage (TDOPTALL):
  /// true roll-up from finer cuboids. Wrong when either fails.
  kTDOptAll,
  /// Top-down using roll-up / no-dedup paths only where the property
  /// map proves them safe (TDCUST, §4.5) — always correct.
  kTDCust,
};

/// Every variant, in enum order (tests sweep this instead of
/// hard-coding the nine).
inline constexpr CubeAlgorithm kAllCubeAlgorithms[] = {
    CubeAlgorithm::kReference, CubeAlgorithm::kCounter,
    CubeAlgorithm::kBUC,       CubeAlgorithm::kBUCOpt,
    CubeAlgorithm::kBUCCust,   CubeAlgorithm::kTD,
    CubeAlgorithm::kTDOpt,     CubeAlgorithm::kTDOptAll,
    CubeAlgorithm::kTDCust,
};

const char* CubeAlgorithmToString(CubeAlgorithm algo);
Result<CubeAlgorithm> ParseCubeAlgorithm(std::string_view name);

/// Execution environment for a cube computation.
struct CubeComputeOptions {
  AggregateFunction aggregate = AggregateFunction::kCount;
  /// Per-(axis,state) summarizability; used by the CUST variants and,
  /// in tests, to predict which algorithms are safe. nullptr means
  /// "assume nothing" for CUST variants.
  const LatticeProperties* properties = nullptr;
  /// Iceberg threshold: cells whose distinct-fact count is below this
  /// are dropped from every cuboid (HAVING COUNT >= min_count). The
  /// bottom-up family additionally prunes recursion below the threshold
  /// (the iceberg-cube optimization BUC was designed for); the others
  /// filter on output. 0 or 1 disables.
  int64_t min_count = 0;
  /// The one way the memory budget (counter tables, sort buffers,
  /// partition copies), the temp files sorts spill to, cancellation,
  /// the deadline and the stage stats sink reach the engine, and where
  /// its cost counts land. nullptr = an unlimited, uncancellable
  /// context of ComputeCube's own.
  ExecutionContext* exec = nullptr;
  /// Worker threads for plan execution. 1 (the default) runs every step
  /// on the calling thread — exactly the pre-parallel behavior. 0 means
  /// "use the hardware concurrency". Values > 1 run independent plan
  /// steps concurrently on a worker pool; the result is bit-identical
  /// to parallelism 1 for every algorithm (each cuboid is written by
  /// exactly one task, roll-ups wait on their producers, and the
  /// aggregates are commutative). The bottom-up family executes its
  /// single recursive partition walk sequentially regardless.
  size_t parallelism = 1;
};

/// Computes the full cube of `facts` over `lattice` with `algo`.
///
/// Plan-then-execute: builds the CubePlan for `algo` (see cube/plan.h),
/// then runs it with the algorithm's family executor (see
/// cube/executor.h). When `options.exec` carries a cancellation token or
/// deadline, a cancelled / expired run returns kCancelled /
/// kDeadlineExceeded with all budget charges released. The run's cost
/// counts land in that context's costs().
///
/// Correctness contract: kReference, kCounter, kBUC, kBUCCust, kTD and
/// kTDCust always produce the exact cube. kBUCOpt/kTDOpt additionally
/// require disjointness, kTDOptAll requires disjointness and total
/// coverage; when their assumptions are violated by the data they run
/// to completion but their output is wrong (the paper times them anyway
/// in Fig. 9 — so do our benchmarks).
Result<CubeResult> ComputeCube(CubeAlgorithm algo, const FactTable& facts,
                               const CubeLattice& lattice,
                               const CubeComputeOptions& options);

/// EXPLAIN ANALYZE: runs `algo` end to end (same cost as ComputeCube)
/// and renders its plan with every pipe and step annotated with the
/// actual wall-clock time, output rows and spill I/O of this execution.
/// The run gets a private context so the actuals cover exactly this
/// computation; the caller's budget, temp files, cancellation, deadline
/// and tracer (from `options.exec`) still apply.
Result<std::string> ExplainAnalyzeCube(CubeAlgorithm algo,
                                       const FactTable& facts,
                                       const CubeLattice& lattice,
                                       const CubeComputeOptions& options);

}  // namespace x3

#endif  // X3_CUBE_ALGORITHM_H_
