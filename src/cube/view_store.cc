#include "cube/view_store.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "cube/cell_table.h"
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

Status CubeViewStore::FoldFacts(CuboidId cuboid, const View* base,
                                size_t first_fact, ExecutionContext* ctx,
                                uint64_t* cells_touched, View* view) const {
  view->present = lattice_->PresentAxes(cuboid);
  view->states = lattice_->Decode(cuboid);
  if (base != nullptr) {
    // Room for one new cell per new fact, so that the copy is, as a
    // rule, the patch's only allocation of each array.
    const size_t new_facts = facts_->size() - first_fact;
    view->keys.reserve(base->keys.size() + new_facts * view->key_size());
    view->keys.assign(base->keys.begin(), base->keys.end());
    view->aggs.reserve(base->aggs.size() + new_facts);
    view->aggs.assign(base->aggs.begin(), base->aggs.end());
  }
  CellTable table(view->key_size(), view->keys, view->num_cells());
  // An id view's (cell, fact) per update, in fact order.
  std::vector<std::pair<uint32_t, uint32_t>> updates;
  // Every fact has at least one group: an uncovered axis is a null group.
  if (view->with_fact_ids) updates.reserve(facts_->size() - first_fact);
  // Null-value groups keep coverage-dropping facts visible to later
  // roll-ups.
  GroupWalk walk(*lattice_, cuboid, UncoveredAxis::kNullGroup);
  for (size_t f = first_fact; f < facts_->size(); ++f) {
    if (ctx != nullptr) X3_RETURN_IF_ERROR(ctx->Poll());
    const int64_t measure = facts_->measure(f);
    walk.ForEachGroup(*facts_, f, [&](const GroupKey& key) {
      const uint32_t cell = table.FindOrAdd(key.data(), &view->keys);
      if (cell == view->aggs.size()) view->aggs.emplace_back();
      view->aggs[cell].Update(measure);
      if (view->with_fact_ids) {
        updates.emplace_back(cell, static_cast<uint32_t>(f));
      }
      if (cells_touched != nullptr) ++*cells_touched;
    });
  }
  if (!view->with_fact_ids) return Status::OK();

  // One counting pass lays out every cell's ids: its old ones (base's),
  // then its new ones. f ascends, the walk yields each group of a fact
  // once, and every old id is below first_fact, so each list stays
  // ascending and distinct.
  const size_t cells = view->num_cells();
  const size_t old_cells = base != nullptr ? base->num_cells() : 0;
  const size_t total =
      (base != nullptr ? base->ids.size() : 0) + updates.size();
  X3_CHECK(total <= UINT32_MAX);
  std::vector<uint32_t>& begin = view->id_begin;
  begin.assign(cells + 1, 0);
  for (size_t c = 0; c < old_cells; ++c) {
    begin[c + 1] = base->id_begin[c + 1] - base->id_begin[c];
  }
  for (const auto& [cell, f] : updates) ++begin[cell + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  view->ids.resize(total);
  std::vector<uint32_t> next(begin.begin(), begin.end() - 1);
  for (size_t c = 0; c < old_cells; ++c) {
    const auto old_ids = base->ids.begin();
    std::copy(old_ids + base->id_begin[c], old_ids + base->id_begin[c + 1],
              view->ids.begin() + next[c]);
    next[c] += base->id_begin[c + 1] - base->id_begin[c];
  }
  for (const auto& [cell, f] : updates) view->ids[next[cell]++] = f;
  return Status::OK();
}

Status CubeViewStore::Materialize(const std::vector<CuboidId>& cuboids,
                                  bool with_fact_ids, ExecutionContext* ctx,
                                  CellMap* answer) {
  std::vector<std::shared_ptr<const View>> built;
  built.reserve(cuboids.size());
  for (CuboidId cuboid : cuboids) {
    auto view = std::make_shared<View>();
    view->with_fact_ids = with_fact_ids;
    X3_RETURN_IF_ERROR(
        FoldFacts(cuboid, nullptr, 0, ctx, nullptr, view.get()));
    if (ctx != nullptr) {
      ctx->costs().base_scans.Add();
      ctx->costs().view_cells.Add(view->num_cells());
    }
    built.push_back(std::move(view));
  }
  // Poll() reads the clock only every kDeadlineStride calls: a deadline
  // that expired since then must still stop the publish.
  if (ctx != nullptr) X3_RETURN_IF_ERROR(ctx->CheckInterrupted());
  if (answer != nullptr && !built.empty()) {
    std::vector<size_t> every_position(built.back()->present.size());
    std::iota(every_position.begin(), every_position.end(), 0);
    *answer = Project(*built.back(), every_position, /*needs_ids=*/false);
  }
  // Publish under the lock; every build above ran on private state.
  MutexLock lock(&mu_);
  for (size_t v = 0; v < cuboids.size(); ++v) {
    views_[cuboids[v]] = std::move(built[v]);
  }
  return Status::OK();
}

size_t CubeViewStore::ViewBytes(const View& view) {
  return sizeof(View) + view.present.capacity() * sizeof(size_t) +
         view.states.capacity() * sizeof(AxisStateId) +
         view.keys.capacity() +
         view.aggs.capacity() * sizeof(AggregateState) +
         (view.id_begin.capacity() + view.ids.capacity()) * sizeof(uint32_t);
}

size_t CubeViewStore::ApproxBytes() const {
  MutexLock lock(&mu_);
  size_t bytes = 0;
  for (const auto& [id, view] : views_) {
    bytes += ViewBytes(*view);
  }
  return bytes;
}

size_t CubeViewStore::ViewApproxBytes(CuboidId cuboid) const {
  MutexLock lock(&mu_);
  auto it = views_.find(cuboid);
  return it == views_.end() ? 0 : ViewBytes(*it->second);
}

std::vector<std::pair<CuboidId, bool>> CubeViewStore::MaterializedViews()
    const {
  std::vector<std::pair<CuboidId, bool>> views;
  {
    MutexLock lock(&mu_);
    views.reserve(views_.size());
    for (const auto& [id, view] : views_) {
      views.emplace_back(id, view->with_fact_ids);
    }
  }
  std::sort(views.begin(), views.end());
  return views;
}

Status CubeViewStore::CloneViewFrom(const CubeViewStore& source,
                                    CuboidId cuboid) {
  std::shared_ptr<const View> view;
  {
    MutexLock lock(&source.mu_);
    auto it = source.views_.find(cuboid);
    if (it == source.views_.end()) {
      return Status::NotFound("source has no view for cuboid " +
                              std::to_string(cuboid));
    }
    view = it->second;
  }
  MutexLock lock(&mu_);
  views_[cuboid] = std::move(view);
  return Status::OK();
}

Status CubeViewStore::ApplyDelta(CuboidId cuboid, size_t first_new_fact,
                                 uint64_t* cells_touched) {
  std::shared_ptr<const View> base;
  {
    MutexLock lock(&mu_);
    auto it = views_.find(cuboid);
    if (it == views_.end()) {
      return Status::NotFound("no materialized view for cuboid " +
                              std::to_string(cuboid));
    }
    base = it->second;
  }
  // Same walk as Materialize, restricted to the delta facts: every new
  // fact lands in exactly the cells a full rebuild would put it in, and
  // first-seen order over all facts is the old cells, then the new
  // ones, so the patched view equals a fresh materialization cell for
  // cell.
  auto patched = std::make_shared<View>();
  patched->with_fact_ids = base->with_fact_ids;
  X3_RETURN_IF_ERROR(FoldFacts(cuboid, base.get(), first_new_fact, nullptr,
                               cells_touched, patched.get()));
  MutexLock lock(&mu_);
  auto it = views_.find(cuboid);
  if (it != views_.end() && it->second == base) {
    it->second = std::move(patched);
  }
  return Status::OK();
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
  const size_t key_size = view.key_size();
  const size_t cells = view.num_cells();
  CellMap out;
  if (kept.size() == view.present.size()) {
    // Exact: every cell without a null field, as it is.
    out.reserve(cells);
    for (size_t c = 0; c < cells; ++c) {
      const char* key = view.keys.data() + c * key_size;
      bool has_null = false;
      for (size_t at = 0; at < key_size; at += kKeyFieldBytes) {
        if (ReadKeyField(key + at) == kNullKeyField) has_null = true;
      }
      if (!has_null) out.emplace(GroupKey(key, key_size), view.aggs[c]);
    }
    return out;
  }

  // Roll-up: number the target groups in one CellTable over the kept
  // fields of every source cell.
  constexpr uint32_t kNoGroup = UINT32_MAX;
  const size_t target_size = kept.size() * kKeyFieldBytes;
  CellTable table(target_size);
  std::vector<char> group_keys;
  std::vector<AggregateState> group_aggs;
  std::vector<uint32_t> cell_group;
  if (needs_ids) cell_group.assign(cells, kNoGroup);
  GroupKey target_key(target_size, '\0');
  for (size_t c = 0; c < cells; ++c) {
    const char* key = view.keys.data() + c * key_size;
    bool has_null = false;
    for (size_t i = 0; i < kept.size() && !has_null; ++i) {
      const char* field = key + kept[i] * kKeyFieldBytes;
      has_null = ReadKeyField(field) == kNullKeyField;
      std::memcpy(target_key.data() + i * kKeyFieldBytes, field,
                  kKeyFieldBytes);
    }
    if (has_null) continue;
    // Dropped-axis null cells DO contribute (the fact belongs to the
    // target group even though the dropped axis was missing).
    const uint32_t group = table.FindOrAdd(target_key.data(), &group_keys);
    if (group == group_aggs.size()) group_aggs.emplace_back();
    if (needs_ids) {
      cell_group[c] = group;
    } else {
      group_aggs[group].Merge(view.aggs[c]);
    }
  }

  const size_t groups = group_aggs.size();
  if (needs_ids) {
    // A fact reaching one target group through several source cells
    // must count once (the disjointness repair, §3.6). The cells are
    // counting-sorted by group; each fact's stamp holds the number of
    // the last group that counted it, so every group is one linear
    // walk over its cells' ids. The aggregates are commutative, so the
    // walk order does not matter.
    std::vector<uint32_t> group_begin(groups + 1, 0);
    for (uint32_t group : cell_group) {
      if (group != kNoGroup) ++group_begin[group + 1];
    }
    std::partial_sum(group_begin.begin(), group_begin.end(),
                     group_begin.begin());
    std::vector<uint32_t> order(group_begin[groups]);
    std::vector<uint32_t> next(group_begin.begin(), group_begin.end() - 1);
    for (size_t c = 0; c < cells; ++c) {
      if (cell_group[c] != kNoGroup) {
        order[next[cell_group[c]]++] = static_cast<uint32_t>(c);
      }
    }
    std::vector<uint32_t> stamp(facts_->size(), 0);
    for (size_t g = 0; g < groups; ++g) {
      const uint32_t group_stamp = static_cast<uint32_t>(g) + 1;
      AggregateState& agg = group_aggs[g];
      for (uint32_t i = group_begin[g]; i < group_begin[g + 1]; ++i) {
        const uint32_t c = order[i];
        for (uint32_t k = view.id_begin[c]; k < view.id_begin[c + 1]; ++k) {
          const uint32_t f = view.ids[k];
          if (stamp[f] == group_stamp) continue;
          stamp[f] = group_stamp;
          agg.Update(facts_->measure(f));
        }
      }
    }
  }
  out.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    out.emplace(GroupKey(group_keys.data() + g * target_size, target_size),
                group_aggs[g]);
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

  // Selection holds mu_; the chosen view is immutable and shared, so the
  // projection runs after the lock is released.
  std::shared_ptr<const View> best;
  std::vector<size_t> best_kept;
  bool best_exact = false;
  bool best_needs_ids = false;
  {
    MutexLock lock(&mu_);
    // Candidate views: prefer exact, then the smallest usable ancestor.
    const std::shared_ptr<const View>* chosen = nullptr;
    for (const auto& [id, view] : views_) {
      std::vector<size_t> kept, dropped;
      if (!IsLndDescendant(*view, target, &kept, &dropped)) continue;
      bool exact = dropped.empty();
      bool safe_without_ids = true;
      for (size_t axis : dropped) {
        const SummarizabilityFlags flags =
            properties != nullptr
                ? properties->At(axis, view->states[axis])
                : SummarizabilityFlags{false, false};
        // Coverage is repaired by the null-value groups; only
        // disjointness of the dropped axis matters for id-less merging.
        if (!flags.disjoint) safe_without_ids = false;
      }
      bool usable = exact || safe_without_ids || view->with_fact_ids;
      if (!usable) continue;
      bool better = chosen == nullptr ||
                    (exact && !best_exact) ||
                    (exact == best_exact &&
                     view->num_cells() < (*chosen)->num_cells());
      if (better) {
        chosen = &view;
        st->source_view = id;
        best_kept = std::move(kept);
        best_exact = exact;
        best_needs_ids = !exact && !safe_without_ids;
      }
    }
    if (chosen != nullptr) best = *chosen;
  }

  if (best == nullptr) {
    return Status::NotFound("no usable view for cuboid " +
                            std::to_string(target));
  }
  if (best_exact) {
    st->strategy = ViewStrategy::kExact;
  } else {
    st->strategy = best_needs_ids ? ViewStrategy::kRollupWithIds
                                  : ViewStrategy::kRollup;
  }
  return Project(*best, best_kept, best_needs_ids);
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
