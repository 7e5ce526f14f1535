#ifndef X3_CUBE_FACT_TABLE_H_
#define X3_CUBE_FACT_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "relax/cube_lattice.h"
#include "xdb/database.h"
#include "xdb/value_dictionary.h"

namespace x3 {

/// The materialized input of cube computation: per fact, per axis, the
/// list of bindings with admission masks. This is the paper's
/// "pre-evaluated query tree pattern materialized into a file" (§4) —
/// the most relaxed fully instantiated pattern is matched once, and all
/// cube algorithms consume this table.
///
/// Storage is structure-of-arrays: each axis keeps two contiguous
/// columns — the admission masks (bit s = admitted at state s of the
/// AxisLattice) and the dictionary-encoded grouping values — sharing
/// one per-fact offset index:
///
///   axis a:  masks_  [m0 m1 | m2 | m3 m4 m5 | ...]   uint64 column
///            values_ [v0 v1 | v2 | v3 v4 v5 | ...]   uint32 column
///            offsets_[0, 2, 3, 6, ...]               facts + 1 entries
///
/// The executors' inner loops (COUNTER's admitted-value cache fills,
/// BUC's partition scans, topdown's sort-record emission) scan these
/// columns sequentially; a scan that only needs values — or only masks
/// — touches nothing else. There is no row-major (array-of-structs)
/// path.
///
/// A fact with no binding on an axis simply has an empty binding range
/// there (the coverage-violation case); a fact with several distinct
/// values (the disjointness-violation case) has several entries.
/// Values are interned per axis through an xdb::ValueDictionary.
class FactTable {
 public:
  explicit FactTable(size_t num_axes);

  FactTable(FactTable&&) = default;
  FactTable& operator=(FactTable&&) = default;
  FactTable(const FactTable&) = delete;
  FactTable& operator=(const FactTable&) = delete;

  // --- Building (BeginFact / AddBinding / ... / Finish) ---

  /// Starts a new fact.
  void BeginFact(uint64_t fact_id, int64_t measure);

  /// Interns an axis value string to its per-axis ValueId.
  ValueId InternAxisValue(size_t axis, std::string_view value);

  /// Adds one binding for the current fact. A value the fact already
  /// binds on `axis` is collapsed into that binding, whose mask gains
  /// `mask`; so a fact's values on one axis are distinct. Readers rely
  /// on it: AdmittedValues, BUC's partitions and the view store's id
  /// lists never check for a repeated value.
  void AddBinding(size_t axis, AxisStateMask mask, ValueId value);

  /// Seals the table; required before any read access.
  void Finish();

  /// Reopens a finished table for appending more facts (delta ingest):
  /// BeginFact/AddBinding work again until the next Finish(). Existing
  /// fact indices, ValueIds and column contents are untouched, so
  /// views and fact-id lists built over the old prefix stay valid.
  void ReopenForAppend();

  /// Deep copy (copy construction stays deleted so accidental copies
  /// never compile). The serving layer clones a snapshot's table to
  /// append a committed batch's facts while the old snapshot keeps
  /// serving readers.
  FactTable Clone() const;

  // --- Access ---

  size_t num_axes() const { return num_axes_; }
  size_t size() const { return fact_ids_.size(); }
  bool finished() const { return finished_; }

  uint64_t fact_id(size_t fact) const { return fact_ids_[fact]; }
  int64_t measure(size_t fact) const { return measures_[fact]; }

  /// Number of bindings of `axis` for `fact`.
  size_t NumBindings(size_t axis, size_t fact) const {
    return axis_offsets_[axis][fact + 1] - axis_offsets_[axis][fact];
  }

  /// The admission-mask column slice of `axis` for `fact`. Parallel to
  /// BindingValues: entry i of both describes binding i.
  std::span<const AxisStateMask> BindingMasks(size_t axis,
                                              size_t fact) const;

  /// The value column slice of `axis` for `fact`.
  std::span<const ValueId> BindingValues(size_t axis, size_t fact) const;

  /// Whole-column access for executor inner loops: the full mask /
  /// value columns of one axis plus the per-fact offset index (size
  /// facts + 1). Fact f's bindings live at [offsets[f], offsets[f+1]).
  /// Scanning these directly avoids per-fact span construction in
  /// loops that touch every fact.
  std::span<const AxisStateMask> AxisMaskColumn(size_t axis) const {
    return axis_masks_[axis];
  }
  std::span<const ValueId> AxisValueColumn(size_t axis) const {
    return axis_value_cols_[axis];
  }
  std::span<const uint32_t> AxisOffsets(size_t axis) const {
    return axis_offsets_[axis];
  }

  /// True when binding `mask` admits `state`.
  static bool AdmittedAt(AxisStateMask mask, AxisStateId state) {
    return (mask >> state) & 1u;
  }

  /// Distinct values of `axis` for `fact` admitted at `state`, appended
  /// to `*out` (cleared first) in binding order. Distinct because
  /// AddBinding collapses a repeated value. Inline over the columns:
  /// the group-walk kernel (cube/group_walk.h) and COUNTER's per-fact
  /// cache fill call it once per (fact, axis, state).
  void AdmittedValues(size_t axis, size_t fact, AxisStateId state,
                      std::vector<ValueId>* out) const {
    out->clear();
    const AxisStateMask* masks = axis_masks_[axis].data();
    const ValueId* values = axis_value_cols_[axis].data();
    const uint32_t hi = axis_offsets_[axis][fact + 1];
    for (uint32_t i = axis_offsets_[axis][fact]; i < hi; ++i) {
      if (AdmittedAt(masks[i], state)) out->push_back(values[i]);
    }
  }

  const std::string& AxisValueName(size_t axis, ValueId value) const {
    return axis_dicts_[axis].Value(value);
  }
  /// Number of distinct values seen on `axis`.
  size_t AxisCardinality(size_t axis) const {
    return axis_dicts_[axis].size();
  }

  /// Rough in-memory footprint, for budget-aware callers.
  size_t ApproxBytes() const;

 private:
  size_t num_axes_;
  bool finished_ = false;

  std::vector<uint64_t> fact_ids_;
  std::vector<int64_t> measures_;
  /// Per axis, the two binding columns plus the shared per-fact offset
  /// index (size facts+1 once finished). masks/values are parallel.
  std::vector<std::vector<AxisStateMask>> axis_masks_;
  std::vector<std::vector<ValueId>> axis_value_cols_;
  std::vector<std::vector<uint32_t>> axis_offsets_;
  /// Per axis value dictionaries.
  std::vector<ValueDictionary> axis_dicts_;
};

}  // namespace x3

#endif  // X3_CUBE_FACT_TABLE_H_
