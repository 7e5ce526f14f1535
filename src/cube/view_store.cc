#include "cube/view_store.h"

#include <algorithm>
#include <numeric>

#include "cube/group_walk.h"
#include "util/logging.h"

namespace x3 {

const char* ViewStrategyToString(ViewStrategy s) {
  switch (s) {
    case ViewStrategy::kExact:
      return "exact";
    case ViewStrategy::kRollup:
      return "rollup";
    case ViewStrategy::kRollupWithIds:
      return "rollup+ids";
    case ViewStrategy::kBase:
      return "base";
  }
  return "?";
}

Status CubeViewStore::FoldFacts(CuboidId cuboid, View* view,
                                size_t first_fact, ExecutionContext* ctx,
                                uint64_t* cells_touched) const {
  // Null-value groups keep coverage-dropping facts visible to later
  // roll-ups.
  GroupWalk walk(*lattice_, cuboid, UncoveredAxis::kNullGroup);
  for (size_t f = first_fact; f < facts_->size(); ++f) {
    if (ctx != nullptr) X3_RETURN_IF_ERROR(ctx->Poll());
    const int64_t measure = facts_->measure(f);
    walk.ForEachGroup(*facts_, f, [&](const GroupKey& key) {
      ViewCell& cell = view->cells[key];
      cell.agg.Update(measure);
      if (view->with_fact_ids) {
        // f ascends, and the walk yields each group of a fact once, so
        // the list stays sorted and distinct.
        cell.facts.push_back(static_cast<uint32_t>(f));
      }
      if (cells_touched != nullptr) ++*cells_touched;
    });
  }
  return Status::OK();
}

Status CubeViewStore::Materialize(const std::vector<CuboidId>& cuboids,
                                  bool with_fact_ids, ExecutionContext* ctx,
                                  CellMap* answer) {
  std::vector<View> built(cuboids.size());
  for (size_t v = 0; v < cuboids.size(); ++v) {
    View& view = built[v];
    view.with_fact_ids = with_fact_ids;
    view.present = lattice_->PresentAxes(cuboids[v]);
    view.states = lattice_->Decode(cuboids[v]);
    X3_RETURN_IF_ERROR(FoldFacts(cuboids[v], &view, 0, ctx, nullptr));
    if (ctx != nullptr) {
      ctx->costs().base_scans.Add();
      ctx->costs().view_cells.Add(view.cells.size());
    }
  }
  // Poll() reads the clock only every kDeadlineStride calls: a deadline
  // that expired since then must still stop the publish.
  if (ctx != nullptr) X3_RETURN_IF_ERROR(ctx->CheckInterrupted());
  if (answer != nullptr && !built.empty()) {
    std::vector<size_t> every_position(built.back().present.size());
    std::iota(every_position.begin(), every_position.end(), 0);
    *answer = Project(built.back(), every_position, /*needs_ids=*/false);
  }
  // Publish under the lock; every build above ran on private state.
  MutexLock lock(&mu_);
  for (size_t v = 0; v < cuboids.size(); ++v) {
    views_[cuboids[v]] = std::move(built[v]);
  }
  return Status::OK();
}

size_t CubeViewStore::ViewBytesLocked(const View& view) {
  // Per cell: the hash node holding the key object and the cell, plus
  // 32 for its link, cached hash, bucket slot and malloc header, and
  // the key's bytes. A non-empty id list adds its heap block: capacity
  // plus malloc's 8-byte header, never less than malloc's 32-byte
  // minimum chunk.
  size_t bytes = 0;
  for (const auto& [key, cell] : view.cells) {
    bytes += sizeof(GroupKey) + key.size() + sizeof(ViewCell) + 32;
    if (!cell.facts.empty()) {
      bytes += std::max<size_t>(
          32, cell.facts.capacity() * sizeof(uint32_t) + 8);
    }
  }
  return bytes;
}

size_t CubeViewStore::ApproxBytes() const {
  MutexLock lock(&mu_);
  size_t bytes = 0;
  for (const auto& [id, view] : views_) {
    bytes += ViewBytesLocked(view);
  }
  return bytes;
}

size_t CubeViewStore::ViewApproxBytes(CuboidId cuboid) const {
  MutexLock lock(&mu_);
  auto it = views_.find(cuboid);
  return it == views_.end() ? 0 : ViewBytesLocked(it->second);
}

std::vector<std::pair<CuboidId, bool>> CubeViewStore::MaterializedViews()
    const {
  std::vector<std::pair<CuboidId, bool>> views;
  {
    MutexLock lock(&mu_);
    views.reserve(views_.size());
    for (const auto& [id, view] : views_) {
      views.emplace_back(id, view.with_fact_ids);
    }
  }
  std::sort(views.begin(), views.end());
  return views;
}

Status CubeViewStore::CloneViewFrom(const CubeViewStore& source,
                                    CuboidId cuboid) {
  View copy;
  {
    MutexLock lock(&source.mu_);
    auto it = source.views_.find(cuboid);
    if (it == source.views_.end()) {
      return Status::NotFound("source has no view for cuboid " +
                              std::to_string(cuboid));
    }
    copy = it->second;
  }
  MutexLock lock(&mu_);
  views_[cuboid] = std::move(copy);
  return Status::OK();
}

Status CubeViewStore::ApplyDelta(CuboidId cuboid, size_t first_new_fact,
                                 uint64_t* cells_touched) {
  MutexLock lock(&mu_);
  auto it = views_.find(cuboid);
  if (it == views_.end()) {
    return Status::NotFound("no materialized view for cuboid " +
                            std::to_string(cuboid));
  }
  // Same walk as Materialize, restricted to the delta facts: every new
  // fact lands in exactly the cells a full rebuild would put it in, so
  // the patched view equals a fresh materialization cell for cell.
  return FoldFacts(cuboid, &it->second, first_new_fact, nullptr,
                   cells_touched);
}

bool CubeViewStore::IsLndDescendant(const View& view, CuboidId target,
                                    std::vector<size_t>* kept_positions,
                                    std::vector<size_t>* dropped_axes) const {
  kept_positions->clear();
  dropped_axes->clear();
  std::vector<size_t> target_present = lattice_->PresentAxes(target);
  size_t ti = 0;
  for (size_t i = 0; i < view.present.size(); ++i) {
    size_t axis = view.present[i];
    AxisStateId target_state = lattice_->StateOf(target, axis);
    if (ti < target_present.size() && target_present[ti] == axis) {
      // Kept axis: state must be identical (structural relaxation
      // changes bindings; views only help across LND edges).
      if (target_state != view.states[axis]) return false;
      kept_positions->push_back(i);
      ++ti;
    } else {
      // Dropped axis: target must have it absent.
      if (lattice_->axis(axis).state(target_state).grouping_present()) {
        return false;
      }
      dropped_axes->push_back(axis);
    }
  }
  // Any target-present axis not present in the view disqualifies it.
  if (ti != target_present.size()) return false;
  // Axes absent in both must agree on state (absent is unique per axis,
  // so nothing further to check).
  return true;
}

CellMap CubeViewStore::Project(const View& view,
                               const std::vector<size_t>& kept,
                               bool needs_ids) const {
  CellMap out;
  std::unordered_map<GroupKey, std::vector<const ViewCell*>> groups;
  for (const auto& [key, cell] : view.cells) {
    GroupKey target_key;
    target_key.reserve(kept.size() * kKeyFieldBytes);
    bool has_null = false;
    for (size_t pos : kept) {
      const char* field = key.data() + pos * kKeyFieldBytes;
      if (ReadKeyField(field) == kNullKeyField) {
        has_null = true;
        break;
      }
      target_key.append(field, kKeyFieldBytes);
    }
    if (has_null) continue;
    // Dropped-axis null cells DO contribute (the fact belongs to the
    // target group even though the dropped axis was missing).
    if (needs_ids) {
      groups[target_key].push_back(&cell);
    } else {
      out[target_key].Merge(cell.agg);
    }
  }
  if (!needs_ids) return out;
  // A fact reaching one target group through several source cells must
  // count once (the disjointness repair, §3.6). Each fact's stamp holds
  // the number of the last group that counted it, so every group is
  // one linear walk over its cells' ids; the aggregates are
  // commutative, so the walk order does not matter.
  std::vector<uint32_t> stamp(facts_->size(), 0);
  uint32_t group_number = 0;
  for (const auto& [target_key, cells] : groups) {
    ++group_number;
    AggregateState& agg = out[target_key];
    for (const ViewCell* cell : cells) {
      for (uint32_t f : cell->facts) {
        if (stamp[f] == group_number) continue;
        stamp[f] = group_number;
        agg.Update(facts_->measure(f));
      }
    }
  }
  return out;
}

Result<CellMap> CubeViewStore::AnswerFromViews(
    CuboidId target, AggregateFunction fn,
    const LatticeProperties* properties, ViewComputeStats* stats) const {
  (void)fn;  // all components are maintained in AggregateState
  ViewComputeStats local;
  ViewComputeStats* st = stats != nullptr ? stats : &local;
  *st = ViewComputeStats{};

  // View selection and roll-up hold mu_ (`best` points into views_).
  MutexLock lock(&mu_);
  // Candidate views: prefer exact, then the smallest usable ancestor.
  const View* best = nullptr;
  CuboidId best_id = 0;
  std::vector<size_t> best_kept, best_dropped;
  bool best_exact = false;
  bool best_needs_ids = false;
  for (const auto& [id, view] : views_) {
    std::vector<size_t> kept, dropped;
    if (!IsLndDescendant(view, target, &kept, &dropped)) continue;
    bool exact = dropped.empty();
    bool safe_without_ids = true;
    for (size_t axis : dropped) {
      const SummarizabilityFlags flags =
          properties != nullptr
              ? properties->At(axis, view.states[axis])
              : SummarizabilityFlags{false, false};
      // Coverage is repaired by the null-value groups; only
      // disjointness of the dropped axis matters for id-less merging.
      if (!flags.disjoint) safe_without_ids = false;
    }
    bool usable = exact || safe_without_ids || view.with_fact_ids;
    if (!usable) continue;
    bool better = best == nullptr ||
                  (exact && !best_exact) ||
                  (exact == best_exact &&
                   view.cells.size() < best->cells.size());
    if (better) {
      best = &view;
      best_id = id;
      best_kept = kept;
      best_dropped = dropped;
      best_exact = exact;
      best_needs_ids = !exact && !safe_without_ids;
    }
  }

  if (best != nullptr) {
    st->source_view = best_id;
    if (best_exact) {
      st->strategy = ViewStrategy::kExact;
    } else {
      st->strategy = best_needs_ids ? ViewStrategy::kRollupWithIds
                                    : ViewStrategy::kRollup;
    }
    return Project(*best, best_kept, best_needs_ids);
  }
  return Status::NotFound("no usable view for cuboid " +
                          std::to_string(target));
}

Result<CellMap> CubeViewStore::Answer(
    CuboidId target, AggregateFunction fn,
    const LatticeProperties* properties, ViewComputeStats* stats) const {
  ViewComputeStats local;
  ViewComputeStats* st = stats != nullptr ? stats : &local;
  Result<CellMap> from_views = AnswerFromViews(target, fn, properties, st);
  if (from_views.ok() ||
      from_views.status().code() != StatusCode::kNotFound) {
    return from_views;
  }

  // Fall back to the base table (unlocked: only the immutable fact
  // table and lattice are touched).
  st->strategy = ViewStrategy::kBase;
  CellMap out;
  GroupWalk walk(*lattice_, target, UncoveredAxis::kDropFact);
  for (size_t f = 0; f < facts_->size(); ++f) {
    const int64_t measure = facts_->measure(f);
    walk.ForEachGroup(*facts_, f, [&](const GroupKey& key) {
      out[key].Update(measure);
    });
  }
  return out;
}

}  // namespace x3
