#ifndef X3_CUBE_VIEW_STORE_H_
#define X3_CUBE_VIEW_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cube/aggregate.h"
#include "cube/cube_result.h"
#include "cube/fact_table.h"
#include "cube/group_walk.h"
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
/// Layout: a view is flat arrays, not a node per cell. Its cells'
/// keys lie back to back in one buffer, their aggregates in one vector
/// and, in an id view, their fact ids in one array with one offset per
/// cell; builds and roll-ups find cells through one CellTable
/// (cube/cell_table.h). So a build makes a handful of allocations, not
/// several per cell, and a view's byte count is its arrays' capacities.
///
/// Thread safety: a published view is immutable, held by
/// std::shared_ptr<const View>. The view map is guarded by `mu_` (rank
/// lock_rank::kViewStore), held only to pick a view or to publish one:
/// AnswerFromViews copies the chosen view's pointer under the lock and
/// projects after releasing it, so readers of one store never wait for
/// each other's projections, and a concurrent Evict only drops the
/// map's reference. Materialize and ApplyDelta build outside the lock
/// and publish under it; Answer's base-table fallback also runs
/// unlocked (it touches only the immutable fact table and lattice).
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

  /// Shares `cuboid`'s materialized view of `source` with this store
  /// (replacing any existing view of the same cuboid): both stores then
  /// hold the one immutable view, and nothing is copied. NotFound when
  /// `source` has no such view. The two stores' locks are taken
  /// sequentially, never nested, so same-rank stores are fine.
  Status CloneViewFrom(const CubeViewStore& source, CuboidId cuboid)
      X3_EXCLUDES(mu_);

  /// Folds facts [first_new_fact, facts()->size()) of the (re-finished)
  /// fact table into `cuboid`'s materialized view — the same
  /// null-value-group walk Materialize runs, restricted to the delta
  /// range, so the patched view is cell-for-cell a fresh
  /// materialization. The patch is a new view, built outside the lock
  /// from the current one (copied once) and published in its place, so
  /// another store sharing the old view (CloneViewFrom) and readers
  /// projecting it never see a half-folded view. A concurrent Evict or
  /// Materialize of `cuboid` wins over the patch. Caller is responsible
  /// for only patching views the delta plan proved safe.
  /// `cells_touched` (optional) accumulates the number of cell updates.
  /// NotFound when the view is not materialized.
  Status ApplyDelta(CuboidId cuboid, size_t first_new_fact,
                    uint64_t* cells_touched = nullptr) X3_EXCLUDES(mu_);

  /// Heap held by materialized views (a view shared with another store
  /// counts in both).
  size_t ApproxBytes() const X3_EXCLUDES(mu_);

  /// Heap of one materialized view (0 when absent) — the unit the
  /// serving layer's LRU accounting is denominated in.
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
  struct View {
    bool with_fact_ids = false;
    /// Present axes of the view's cuboid, ascending.
    std::vector<size_t> present;
    /// Per-axis state of the view's cuboid.
    std::vector<AxisStateId> states;
    /// Cell c's key, over `present` (null fields = kNullKeyField), at
    /// bytes [c * key_size(), (c + 1) * key_size()). Cells are numbered
    /// in first-seen order over the facts.
    std::vector<char> keys;
    /// Cell c's aggregate.
    std::vector<AggregateState> aggs;
    /// In an id view, cell c's contributing fact indices are
    /// ids[id_begin[c] .. id_begin[c + 1]), ascending and distinct;
    /// both are empty in a view without ids.
    std::vector<uint32_t> id_begin;
    std::vector<uint32_t> ids;

    size_t key_size() const { return present.size() * kKeyFieldBytes; }
    size_t num_cells() const { return aggs.size(); }
  };

  /// True iff `target` is `view` with zero or more of its axes
  /// LND-dropped (same states on the shared axes). Fills
  /// `kept_positions` with the view-key field index of each target
  /// present axis.
  bool IsLndDescendant(const View& view, CuboidId target,
                       std::vector<size_t>* kept_positions,
                       std::vector<size_t>* dropped_axes) const;

  /// Builds into `view` (empty) the view of `cuboid` over every fact:
  /// `base`'s cells, the view over facts [0, first_fact) (null when
  /// first_fact is 0), copied, then facts [first_fact, facts_->size())
  /// folded in by the null-value-group walk (cube/group_walk.h) that
  /// Materialize and ApplyDelta share. Polls `ctx` (may be null) once
  /// per fact; counts cell updates into `cells_touched` (may be null).
  Status FoldFacts(CuboidId cuboid, const View* base, size_t first_fact,
                   ExecutionContext* ctx, uint64_t* cells_touched,
                   View* view) const;

  /// Projects `view`'s cells onto the key fields at `kept` positions,
  /// skipping cells with a null kept field; merges aggregates, or with
  /// `needs_ids` re-aggregates each target group from its cells' fact
  /// ids, every fact once. An exact projection keeps every position.
  /// Reads only its arguments and the immutable fact table, so callers
  /// run it without mu_.
  CellMap Project(const View& view, const std::vector<size_t>& kept,
                  bool needs_ids) const;

  /// Heap of one view: its arrays' capacities.
  static size_t ViewBytes(const View& view);

  const FactTable* facts_;
  const CubeLattice* lattice_;
  mutable Mutex mu_{lock_rank::kViewStore};
  std::unordered_map<CuboidId, std::shared_ptr<const View>> views_
      X3_GUARDED_BY(mu_);
};

}  // namespace x3

#endif  // X3_CUBE_VIEW_STORE_H_
