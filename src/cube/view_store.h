#ifndef X3_CUBE_VIEW_STORE_H_
#define X3_CUBE_VIEW_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cube/aggregate.h"
#include "cube/cube_result.h"
#include "cube/fact_table.h"
#include "relax/cube_lattice.h"
#include "schema/summarizability.h"
#include "util/exec.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace x3 {

/// How a cuboid request was answered by the view store.
enum class ViewStrategy : uint8_t {
  /// The cuboid itself was materialized: cells copied.
  kExact,
  /// Rolled up from a materialized LND-ancestor without fact ids
  /// (requires the dropped axes to be disjoint at the view's states).
  kRollup,
  /// Rolled up from a materialized LND-ancestor by re-aggregating the
  /// tracked fact ids, each fact once per target group — correct even
  /// without summarizability (§3.6's "accompany intermediate results
  /// ... with the attributes to be aggregated, keeping track of fact
  /// items").
  kRollupWithIds,
  /// No usable view: computed from the base fact table.
  kBase,
};

const char* ViewStrategyToString(ViewStrategy s);

/// How one Answer() or AnswerFromViews() call was answered, and from
/// which view.
struct ViewComputeStats {
  ViewStrategy strategy = ViewStrategy::kBase;
  CuboidId source_view = 0;
};

/// Materialized intermediate cube results (§3.6).
///
/// A view is one cuboid's cells *with null-value groups*: every fact
/// appears, facts missing an axis binding carried under a null key
/// field (the §3.5 "null value group" patch that repairs coverage), and
/// optionally with the contributing fact ids per cell (which repairs
/// disjointness for later roll-ups at the cost of keeping fact items
/// around — exactly the trade-off the paper describes).
///
/// Answer(target) picks the cheapest correct strategy: the exact view;
/// an LND-ancestor view rolled up without ids when the dropped axes are
/// provably disjoint; an id-carrying ancestor re-aggregated from its
/// fact ids; or the base table.
///
/// Thread safety: the view map is guarded by `mu_` (rank
/// lock_rank::kViewStore), so concurrent Answer() calls — the shared
/// cuboid-cache shape the serving layer needs — are safe, including
/// against a concurrent Materialize(). Materialize builds the view
/// outside the lock and only publishes under it; Answer's base-table
/// fallback also runs unlocked (it touches only the immutable fact
/// table and lattice).
class CubeViewStore {
 public:
  /// Both referents must outlive the store.
  CubeViewStore(const FactTable* facts, const CubeLattice* lattice)
      : facts_(facts), lattice_(lattice) {}

  CubeViewStore(const CubeViewStore&) = delete;
  CubeViewStore& operator=(const CubeViewStore&) = delete;

  /// Materializes `cuboid` from the base table (with null-value groups;
  /// fact ids retained when `with_fact_ids`). Re-materializing replaces
  /// the view.
  Status Materialize(CuboidId cuboid, bool with_fact_ids) X3_EXCLUDES(mu_) {
    return Materialize(std::vector<CuboidId>{cuboid}, with_fact_ids,
                       nullptr);
  }

  /// Materializes each of `cuboids` as above and publishes them together
  /// once every one is built. `ctx` (may be null) is polled once per
  /// fact and checked once more before publishing: when it reports
  /// cancellation or an expired deadline, no view is published and that
  /// status is returned. Each view build counts one base scan and its
  /// cells (null-value groups included) into ctx->costs(). `answer`
  /// (may be null) receives the last cuboid's cells, projected from its
  /// new view exactly as AnswerFromViews projects an exact hit, before
  /// the view is published, so a concurrent eviction cannot empty it.
  Status Materialize(const std::vector<CuboidId>& cuboids,
                     bool with_fact_ids, ExecutionContext* ctx,
                     CellMap* answer = nullptr) X3_EXCLUDES(mu_);

  /// Drops the materialized view of `cuboid`; false when it was not
  /// materialized. The serving layer's cuboid cache uses this as its
  /// eviction hook.
  bool Evict(CuboidId cuboid) X3_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return views_.erase(cuboid) > 0;
  }

  bool Contains(CuboidId cuboid) const X3_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return views_.count(cuboid) > 0;
  }
  size_t num_views() const X3_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return views_.size();
  }

  /// Each materialized view as (cuboid, carries fact ids), ascending by
  /// cuboid, read under one lock. Delta planning needs both halves of
  /// the pair from the same moment: id-carrying views can always absorb
  /// new facts, id-less views only where summarizability still proves
  /// the merge safe.
  std::vector<std::pair<CuboidId, bool>> MaterializedViews() const
      X3_EXCLUDES(mu_);

  /// Copies `cuboid`'s materialized view out of `source` into this
  /// store (replacing any existing view of the same cuboid). NotFound
  /// when `source` has no such view. The two stores' locks are taken
  /// sequentially, never nested, so same-rank stores are fine.
  Status CloneViewFrom(const CubeViewStore& source, CuboidId cuboid)
      X3_EXCLUDES(mu_);

  /// Folds facts [first_new_fact, facts()->size()) of the (re-finished)
  /// fact table into `cuboid`'s materialized view — the same
  /// null-value-group walk Materialize runs, restricted to the
  /// delta range, so the patched view is byte-identical to a fresh
  /// materialization. Caller is responsible for only patching views the
  /// delta plan proved safe. `cells_touched` (optional) accumulates the
  /// number of cell updates. NotFound when the view is not
  /// materialized.
  Status ApplyDelta(CuboidId cuboid, size_t first_new_fact,
                    uint64_t* cells_touched = nullptr) X3_EXCLUDES(mu_);

  /// Approximate memory held by materialized views.
  size_t ApproxBytes() const X3_EXCLUDES(mu_);

  /// Approximate memory of one materialized view (0 when absent) — the
  /// unit the serving layer's LRU accounting is denominated in.
  size_t ViewApproxBytes(CuboidId cuboid) const X3_EXCLUDES(mu_);

  /// Computes the cells of `target` (no null groups — the real cuboid)
  /// using the best available strategy. `properties` may be null
  /// ("assume nothing": id-less roll-ups are never chosen).
  Result<CellMap> Answer(CuboidId target, AggregateFunction fn,
                         const LatticeProperties* properties = nullptr,
                         ViewComputeStats* stats = nullptr) const
      X3_EXCLUDES(mu_);

  /// Answer() restricted to the materialized views: exact or roll-up
  /// strategies only, NotFound when no usable view exists. The base
  /// table is never scanned, so a NotFound caller can decide for itself
  /// how a miss is answered (the serving layer materializes the views
  /// its cache keeps and answers from them).
  Result<CellMap> AnswerFromViews(
      CuboidId target, AggregateFunction fn,
      const LatticeProperties* properties = nullptr,
      ViewComputeStats* stats = nullptr) const X3_EXCLUDES(mu_);

 private:
  struct ViewCell {
    AggregateState agg;
    /// Contributing fact indices, ascending and distinct (empty when
    /// the view was materialized without ids).
    std::vector<uint32_t> facts;
  };
  struct View {
    bool with_fact_ids = false;
    /// Present axes of the view's cuboid, ascending.
    std::vector<size_t> present;
    /// Per-axis state of the view's cuboid.
    std::vector<AxisStateId> states;
    /// Keyed over `present` (null fields = kNullKeyField).
    std::unordered_map<GroupKey, ViewCell> cells;
  };

  /// True iff `target` is `view` with zero or more of its axes
  /// LND-dropped (same states on the shared axes). Fills
  /// `kept_positions` with the view-key field index of each target
  /// present axis.
  bool IsLndDescendant(const View& view, CuboidId target,
                       std::vector<size_t>* kept_positions,
                       std::vector<size_t>* dropped_axes) const;

  /// Folds facts [first_fact, facts_->size()) into `view`, the view of
  /// `cuboid`: the null-value-group walk (cube/group_walk.h) shared by
  /// Materialize and ApplyDelta. Polls `ctx` (may be null) once per
  /// fact; counts cell updates into `cells_touched` (may be null).
  Status FoldFacts(CuboidId cuboid, View* view, size_t first_fact,
                   ExecutionContext* ctx, uint64_t* cells_touched) const;

  /// Projects `view`'s cells onto the key fields at `kept` positions,
  /// skipping cells with a null kept field; merges aggregates, or with
  /// `needs_ids` re-aggregates each target group from its cells' fact
  /// ids, every fact once. An exact projection keeps every position.
  CellMap Project(const View& view, const std::vector<size_t>& kept,
                  bool needs_ids) const;

  /// Approximate memory of one view (caller holds mu_; the view itself
  /// is all the state touched).
  static size_t ViewBytesLocked(const View& view);

  const FactTable* facts_;
  const CubeLattice* lattice_;
  mutable Mutex mu_{lock_rank::kViewStore};
  std::unordered_map<CuboidId, View> views_ X3_GUARDED_BY(mu_);
};

}  // namespace x3

#endif  // X3_CUBE_VIEW_STORE_H_
