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
  /// the deadline and the stage stats sink reach the engine. nullptr =
  /// an unlimited, uncancellable context of ComputeCube's own.
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
  /// Block-compress sort spill runs (TD family). Cuts spill bytes at
  /// some CPU cost; results are bit-identical either way.
  bool compress_spill = false;
};

/// Cost counters exposed by every algorithm (machine-independent
/// complements to wall-clock time).
struct CubeComputeStats {
  /// Scans over the fact table.
  uint64_t base_scans = 0;
  /// COUNTER: passes over the input (>1 means it did not fit).
  uint64_t passes = 0;
  /// Number of sorts started (TD family).
  uint64_t sorts = 0;
  /// Records fed into sorts.
  uint64_t records_sorted = 0;
  /// Spilled runs and bytes (external sorts).
  uint64_t spilled_runs = 0;
  uint64_t spill_bytes = 0;
  /// BUC: partitions materialized.
  uint64_t partitions = 0;
  /// BUC: total rows placed into partitions (>= facts when overlapping).
  uint64_t partition_rows = 0;
  /// TDOPTALL/TDCUST: cuboids computed by roll-up or copy instead of
  /// from base.
  uint64_t rollups = 0;
  /// Peak tracked memory (bytes) if a budget was supplied.
  uint64_t peak_memory = 0;

  /// Merges the counters of `other` into this (sum everywhere, max for
  /// peak_memory). The parallel executor gives each task its own stats
  /// and absorbs them at the join point in task order, so the merged
  /// totals are deterministic.
  void Absorb(const CubeComputeStats& other);
};

/// Computes the full cube of `facts` over `lattice` with `algo`.
///
/// Plan-then-execute: builds the CubePlan for `algo` (see cube/plan.h),
/// then dispatches to the executor registered for the algorithm (see
/// cube/executor.h) — no per-algorithm switch on the execution path.
/// When `options.exec` carries a cancellation token or deadline, a
/// cancelled / expired run returns kCancelled / kDeadlineExceeded with
/// all budget charges released.
///
/// Correctness contract: kReference, kCounter, kBUC, kBUCCust, kTD and
/// kTDCust always produce the exact cube. kBUCOpt/kTDOpt additionally
/// require disjointness, kTDOptAll requires disjointness and total
/// coverage; when their assumptions are violated by the data they run
/// to completion but their output is wrong (the paper times them anyway
/// in Fig. 9 — so do our benchmarks).
Result<CubeResult> ComputeCube(CubeAlgorithm algo, const FactTable& facts,
                               const CubeLattice& lattice,
                               const CubeComputeOptions& options,
                               CubeComputeStats* stats = nullptr);

/// EXPLAIN ANALYZE: runs `algo` end to end (same cost as ComputeCube)
/// and renders its plan with every pipe and step annotated with the
/// actual wall-clock time, output rows and spill I/O of this execution.
/// The run gets a private stats sink so the actuals cover exactly this
/// computation; the caller's budget, temp files, cancellation, deadline
/// and tracer (from `options.exec`) still apply.
Result<std::string> ExplainAnalyzeCube(CubeAlgorithm algo,
                                       const FactTable& facts,
                                       const CubeLattice& lattice,
                                       const CubeComputeOptions& options,
                                       CubeComputeStats* stats = nullptr);

}  // namespace x3

#endif  // X3_CUBE_ALGORITHM_H_
