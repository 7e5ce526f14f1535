#ifndef X3_CUBE_PLAN_H_
#define X3_CUBE_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "relax/cube_lattice.h"
#include "schema/summarizability.h"

namespace x3 {

enum class CubeAlgorithm : uint8_t;  // cube/algorithm.h
class CubeResult;                    // cube/cube_result.h
class StatsSink;                     // util/exec.h

/// One step of a cube execution plan: how one cuboid is produced.
///
/// Originally this described only the TDCUST strategy choice; it is now
/// the unit of the `CubePlan` built for *every* algorithm family, so
/// EXPLAIN can show — and executors can follow — the per-cuboid
/// strategy "dictated by the semantics of the cube being computed"
/// (§4.5) no matter which family runs.
struct CuboidPlanStep {
  enum class Kind : uint8_t {
    kBaseWithIds,      // full TD sort carrying fact ids
    kBaseNoIds,        // sort without ids (cuboid proven disjoint)
    kRollup,           // aggregate an LND axis away from `source`
    kCopy,             // structural edge: copy `source`'s cells
    kHashAggregate,    // counter family: hash cells off a shared scan
    kPartitionRecurse, // bottom-up family: cells emitted by the
                       // recursive partition walk
    kSharedSort,       // TDOPT: prefix aggregation of pipe `source`
  };
  CuboidId cuboid = 0;
  Kind kind = Kind::kBaseWithIds;
  /// kRollup/kCopy: source cuboid. kSharedSort: index into
  /// CubePlan::pipes. Unused otherwise.
  CuboidId source = 0;
  /// Safety annotation from the property map: true when the chosen
  /// strategy provably yields the exact cube for this cuboid. OPT
  /// variants plan unsafe steps when their global assumption is
  /// unproven — exactly the paper's Fig. 9 caveat, now visible in
  /// EXPLAIN before any cycles are spent.
  bool safe = true;
};

const char* CuboidPlanStepKindToString(CuboidPlanStep::Kind kind);

/// A shared-sort pipe (TDOPT): one sort of the base in `sort_order`
/// serves every prefix cuboid in `covered`.
struct CubePlanPipe {
  /// (axis, state) per present axis, in the pipe's sort order (a
  /// chain-friendly permutation, not axis order).
  std::vector<std::pair<size_t, AxisStateId>> sort_order;
  /// (prefix length, cuboid) pairs computed from this pipe's sort.
  std::vector<std::pair<size_t, CuboidId>> covered;
};

/// The execution plan for a whole cube: one step per cuboid (in
/// dependency order — roll-up sources always precede their readers)
/// plus, for the shared-sort family, the pipe definitions.
struct CubePlan {
  CubeAlgorithm algorithm{};
  std::vector<CuboidPlanStep> steps;
  std::vector<CubePlanPipe> pipes;
  /// Number of steps whose strategy is not proven safe by the property
  /// map (0 for the always-correct variants).
  size_t unsafe_steps = 0;
};

/// Builds the execution plan `algo` would follow over `lattice` given
/// the property map. Pure planning: no data is touched, so EXPLAIN is
/// free and the same plan object drives the executor afterwards.
CubePlan BuildCubePlan(CubeAlgorithm algo, const CubeLattice& lattice,
                       const LatticeProperties& properties);

/// The dependency DAG of a plan, in the task numbering the parallel
/// executor uses: tasks [0, pipes.size()) are the pipes, task
/// pipes.size() + i is steps[i]. Entry t lists the tasks that must
/// complete before task t may run: a kSharedSort step depends on its
/// pipe; a kRollup/kCopy step depends on the step that produces its
/// source cuboid. Every dependency index is smaller than its reader's
/// (steps are in dependency order), so the sequential schedule
/// "pipes, then steps in order" is always valid.
std::vector<std::vector<size_t>> PlanStepDependencies(const CubePlan& plan);

/// Human-readable rendering of a plan: a header line, then one line per
/// cuboid (and one per pipe for the shared-sort family). Unsafe steps
/// are flagged "UNSAFE".
std::string ExplainCubePlan(const CubePlan& plan, const CubeLattice& lattice);

/// ExplainCubePlan with per-line actuals: each pipe and step line is
/// annotated with the wall-clock time, output rows and spill I/O that
/// an execution of this plan recorded in `stats` (the executors' stage
/// labels: "cuboid/<id>", "pipe/<n>", "pass/<n>", "partition-walk"),
/// and with the cell count of each cuboid in `result`. Steps whose
/// label never got recorded render without an annotation. This is the
/// rendering half of ExplainAnalyzeCube (cube/algorithm.h), exposed so
/// callers holding a finished execution's sink can re-render for free.
std::string ExplainCubePlanWithActuals(const CubePlan& plan,
                                       const CubeLattice& lattice,
                                       const StatsSink& stats,
                                       const CubeResult& result);

namespace internal {

/// Differing axis of a lattice edge (p -> c one-step relaxation).
struct LatticeEdge {
  size_t axis;
  AxisStateId from_state;
  AxisStateId to_state;
  bool to_absent;
};

/// The single differing axis between `p` and `c`, or nullopt when they
/// differ in zero or two-plus axes.
std::optional<LatticeEdge> EdgeBetween(const CubeLattice& lattice, CuboidId p,
                                       CuboidId c);

/// TDCUST's per-edge safety test (see DESIGN.md §5): an LND roll-up is
/// safe iff the dropped axis is disjoint and covered at the parent's
/// state; a structural copy is safe iff the axis is covered at the
/// tighter state and disjoint at the more relaxed one (then both states
/// bind exactly the same single value for every fact).
bool EdgeRollupSafe(const LatticeProperties& props, const LatticeEdge& edge);

}  // namespace internal
}  // namespace x3

#endif  // X3_CUBE_PLAN_H_
