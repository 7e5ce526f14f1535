#include "cube/fact_table.h"

#include "util/logging.h"

namespace x3 {

FactTable::FactTable(size_t num_axes) : num_axes_(num_axes) {
  axis_masks_.resize(num_axes);
  axis_value_cols_.resize(num_axes);
  axis_offsets_.resize(num_axes);
  axis_dicts_.resize(num_axes);
  for (size_t a = 0; a < num_axes; ++a) {
    axis_offsets_[a].push_back(0);
  }
}

void FactTable::BeginFact(uint64_t fact_id, int64_t measure) {
  X3_CHECK(!finished_) << "BeginFact after Finish";
  // Seal the previous fact's offsets.
  if (!fact_ids_.empty()) {
    for (size_t a = 0; a < num_axes_; ++a) {
      axis_offsets_[a].push_back(
          static_cast<uint32_t>(axis_masks_[a].size()));
    }
  }
  fact_ids_.push_back(fact_id);
  measures_.push_back(measure);
}

ValueId FactTable::InternAxisValue(size_t axis, std::string_view value) {
  return axis_dicts_[axis].Intern(value);
}

void FactTable::AddBinding(size_t axis, AxisStateMask mask, ValueId value) {
  X3_CHECK(!finished_) << "AddBinding after Finish";
  X3_CHECK(!fact_ids_.empty()) << "AddBinding before BeginFact";
  std::vector<ValueId>& values = axis_value_cols_[axis];
  size_t fact_start = axis_offsets_[axis].back();
  for (size_t i = fact_start; i < values.size(); ++i) {
    if (values[i] == value) {
      axis_masks_[axis][i] |= mask;  // collapse duplicates by value
      return;
    }
  }
  axis_masks_[axis].push_back(mask);
  values.push_back(value);
}

void FactTable::Finish() {
  X3_CHECK(!finished_);
  if (!fact_ids_.empty()) {
    for (size_t a = 0; a < num_axes_; ++a) {
      axis_offsets_[a].push_back(
          static_cast<uint32_t>(axis_masks_[a].size()));
    }
  }
  finished_ = true;
}

void FactTable::ReopenForAppend() {
  X3_CHECK(finished_) << "ReopenForAppend before Finish";
  // Undo Finish's sealing entries; BeginFact re-seals the last existing
  // fact exactly the same way.
  if (!fact_ids_.empty()) {
    for (size_t a = 0; a < num_axes_; ++a) {
      axis_offsets_[a].pop_back();
    }
  }
  finished_ = false;
}

FactTable FactTable::Clone() const {
  FactTable copy(num_axes_);
  copy.finished_ = finished_;
  copy.fact_ids_ = fact_ids_;
  copy.measures_ = measures_;
  copy.axis_masks_ = axis_masks_;
  copy.axis_value_cols_ = axis_value_cols_;
  copy.axis_offsets_ = axis_offsets_;
  for (size_t a = 0; a < num_axes_; ++a) {
    copy.axis_dicts_[a] = axis_dicts_[a].Clone();
  }
  return copy;
}

std::span<const AxisStateMask> FactTable::BindingMasks(size_t axis,
                                                       size_t fact) const {
  X3_DCHECK(finished_);
  uint32_t lo = axis_offsets_[axis][fact];
  uint32_t hi = axis_offsets_[axis][fact + 1];
  return std::span<const AxisStateMask>(axis_masks_[axis].data() + lo,
                                        hi - lo);
}

std::span<const ValueId> FactTable::BindingValues(size_t axis,
                                                  size_t fact) const {
  X3_DCHECK(finished_);
  uint32_t lo = axis_offsets_[axis][fact];
  uint32_t hi = axis_offsets_[axis][fact + 1];
  return std::span<const ValueId>(axis_value_cols_[axis].data() + lo,
                                  hi - lo);
}

size_t FactTable::ApproxBytes() const {
  size_t bytes = fact_ids_.size() * (sizeof(uint64_t) + sizeof(int64_t));
  for (size_t a = 0; a < num_axes_; ++a) {
    bytes += axis_masks_[a].size() * sizeof(AxisStateMask);
    bytes += axis_value_cols_[a].size() * sizeof(ValueId);
    bytes += axis_offsets_[a].size() * sizeof(uint32_t);
    for (size_t v = 0; v < axis_dicts_[a].size(); ++v) {
      bytes += axis_dicts_[a].Value(static_cast<ValueId>(v)).size() + 32;
    }
  }
  return bytes;
}

}  // namespace x3
