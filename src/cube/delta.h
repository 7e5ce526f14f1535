#ifndef X3_CUBE_DELTA_H_
#define X3_CUBE_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cube/fact_table.h"
#include "cube/view_store.h"
#include "relax/cube_lattice.h"
#include "schema/summarizability.h"
#include "util/result.h"

namespace x3 {

/// How one materialized view absorbs a committed fact batch.
enum class DeltaAction : uint8_t {
  /// The view carries fact ids: folding the delta facts in is always
  /// exact (ids keep later roll-ups sound no matter what the new facts
  /// look like).
  kMergeWithIds,
  /// Id-less view, but summarizability proves the merge safe: the axis
  /// properties are disjoint+covered at every present state AND every
  /// delta fact binds exactly one value there, so the stored
  /// LatticeProperties remain truthful after the patch.
  kMerge,
  /// The delta breaks (or may break) a property the id-less view's
  /// downstream roll-ups rely on: re-materialize from scratch, with
  /// fact ids, so the upgraded view is safe regardless.
  kRecompute,
};

const char* DeltaActionToString(DeltaAction action);

/// One materialized view's entry in a delta plan.
struct ViewDeltaStep {
  CuboidId cuboid = 0;
  DeltaAction action = DeltaAction::kRecompute;
  /// Why kRecompute was chosen (empty for the merge actions) — this is
  /// what EXPLAIN surfaces so operators can see which views pay the
  /// full rebuild.
  std::string reason;
};

/// The maintenance plan for folding facts [first_new_fact, size) of a
/// re-finished fact table into a view store's materialized views.
struct DeltaPlan {
  size_t first_new_fact = 0;
  size_t new_facts = 0;
  std::vector<ViewDeltaStep> steps;
};

/// Counters filled by ApplyViewDeltas.
struct DeltaStats {
  uint64_t views_patched = 0;
  uint64_t views_recomputed = 0;
  uint64_t facts_applied = 0;
  uint64_t cells_touched = 0;
};

/// Plans the maintenance of `store`'s materialized views after `facts`
/// grew by the batch starting at fact index `first_new_fact`. `facts`
/// must already contain the appended batch (finished). Per view:
/// kMergeWithIds when the view tracks fact ids; kMerge when
/// summarizability (old properties + per-delta-fact check) proves an
/// id-less fold safe; kRecompute otherwise, with the disqualifying
/// reason recorded.
DeltaPlan PlanViewDeltas(const CubeViewStore& store, const FactTable& facts,
                         const CubeLattice& lattice,
                         const LatticeProperties& properties,
                         size_t first_new_fact);

/// Human-readable rendering of a delta plan, one line per view, using
/// the lattice's cuboid descriptions (the EXPLAIN surface: delta vs
/// recompute per view).
std::string ExplainDeltaPlan(const DeltaPlan& plan,
                             const CubeLattice& lattice);

/// Executes `plan` against `target`, whose fact table must be the
/// appended one the plan was computed over. Merge steps clone the view
/// from `source` and fold the delta facts in; a merge step whose view
/// `source` no longer holds (evicted since planning) is skipped and
/// left out of `target`. Recompute steps re-materialize with fact ids.
/// `stats` (optional) accumulates counters; x3_delta_* metrics are
/// bumped either way.
Status ApplyViewDeltas(const CubeViewStore& source, CubeViewStore* target,
                       const DeltaPlan& plan, DeltaStats* stats = nullptr);

}  // namespace x3

#endif  // X3_CUBE_DELTA_H_
