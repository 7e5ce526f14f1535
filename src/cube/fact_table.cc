#include "cube/fact_table.h"

#include <cstring>

#include "util/logging.h"
#include "util/string_util.h"

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

namespace {

constexpr uint32_t kFactTableMagic = 0x58334654;  // "X3FT"
/// Version 2: columnar binding storage — separate mask (uint64) and
/// value (uint32) columns instead of the v1 array-of-AxisBinding.
constexpr uint32_t kFactTableVersion = 2;

}  // namespace

Status FactTable::Save(const std::string& path, Env* env) const {
  if (!finished_) return Status::Internal("Save before Finish");
  if (env == nullptr) env = Env::Default();
  SequentialFileWriter writer;
  X3_RETURN_IF_ERROR(writer.Open(env, path));
  auto cleanup = [&](Status s) {
    Status close = writer.Close();
    if (s.ok()) s = close;
    if (!s.ok()) env->RemoveFile(path).IgnoreError();
    return s;
  };
  Status s = Status::OK();
  auto w = [&](const void* data, size_t len) {
    if (s.ok()) s = writer.Append(data, len);
  };
  uint64_t header[4] = {kFactTableMagic, kFactTableVersion,
                        static_cast<uint64_t>(num_axes_),
                        static_cast<uint64_t>(fact_ids_.size())};
  w(header, sizeof(header));
  w(fact_ids_.data(), fact_ids_.size() * sizeof(uint64_t));
  w(measures_.data(), measures_.size() * sizeof(int64_t));
  for (size_t a = 0; a < num_axes_ && s.ok(); ++a) {
    uint64_t counts[2] = {axis_masks_[a].size(), axis_dicts_[a].size()};
    w(counts, sizeof(counts));
    w(axis_offsets_[a].data(), axis_offsets_[a].size() * sizeof(uint32_t));
    w(axis_masks_[a].data(), axis_masks_[a].size() * sizeof(AxisStateMask));
    w(axis_value_cols_[a].data(),
      axis_value_cols_[a].size() * sizeof(ValueId));
    for (uint64_t i = 0; i < axis_dicts_[a].size() && s.ok(); ++i) {
      const std::string& v = axis_dicts_[a].Value(static_cast<ValueId>(i));
      uint32_t len = static_cast<uint32_t>(v.size());
      w(&len, sizeof(len));
      w(v.data(), v.size());
    }
  }
  return cleanup(s);
}

Result<FactTable> FactTable::Load(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  // All stored counts must be consistent with the file size; a
  // corrupted count must not drive a huge allocation.
  X3_ASSIGN_OR_RETURN(uint64_t file_size, env->FileSize(path));
  auto plausible = [&](uint64_t count, uint64_t unit) {
    return unit == 0 || count <= file_size / unit + 1;
  };
  SequentialFileReader reader;
  X3_RETURN_IF_ERROR(reader.Open(env, path));
  uint64_t header[4];
  X3_RETURN_IF_ERROR(reader.Read(header, sizeof(header)));
  if (header[0] != kFactTableMagic) {
    return Status::Corruption("bad fact table magic in " + path);
  }
  if (header[1] != kFactTableVersion) {
    return Status::Corruption("unsupported fact table version");
  }
  size_t num_axes = static_cast<size_t>(header[2]);
  size_t num_facts = static_cast<size_t>(header[3]);
  if (!plausible(num_axes, sizeof(uint32_t)) ||
      !plausible(num_facts, sizeof(uint64_t))) {
    return Status::Corruption("implausible counts in " + path);
  }
  FactTable table(num_axes);
  table.fact_ids_.resize(num_facts);
  table.measures_.resize(num_facts);
  X3_RETURN_IF_ERROR(
      reader.Read(table.fact_ids_.data(), num_facts * sizeof(uint64_t)));
  X3_RETURN_IF_ERROR(
      reader.Read(table.measures_.data(), num_facts * sizeof(int64_t)));
  for (size_t a = 0; a < num_axes; ++a) {
    uint64_t counts[2];
    X3_RETURN_IF_ERROR(reader.Read(counts, sizeof(counts)));
    if (!plausible(counts[0], sizeof(AxisStateMask)) ||
        !plausible(counts[1], sizeof(uint32_t))) {
      return Status::Corruption("implausible axis counts in " + path);
    }
    size_t offsets = num_facts == 0 ? 1 : num_facts + 1;
    table.axis_offsets_[a].resize(offsets);
    X3_RETURN_IF_ERROR(reader.Read(table.axis_offsets_[a].data(),
                                   offsets * sizeof(uint32_t)));
    table.axis_masks_[a].resize(counts[0]);
    X3_RETURN_IF_ERROR(reader.Read(table.axis_masks_[a].data(),
                                   counts[0] * sizeof(AxisStateMask)));
    table.axis_value_cols_[a].resize(counts[0]);
    X3_RETURN_IF_ERROR(reader.Read(table.axis_value_cols_[a].data(),
                                   counts[0] * sizeof(ValueId)));
    for (uint64_t i = 0; i < counts[1]; ++i) {
      uint32_t len = 0;
      X3_RETURN_IF_ERROR(reader.Read(&len, sizeof(len)));
      if (!plausible(len, 1)) {
        return Status::Corruption("implausible value length");
      }
      std::string v(len, '\0');
      X3_RETURN_IF_ERROR(reader.Read(v.data(), len));
      // Interning in stored order reproduces the dense id assignment.
      ValueId id = table.axis_dicts_[a].Intern(v);
      if (id != static_cast<ValueId>(i)) {
        return Status::Corruption("duplicate dictionary value in " + path);
      }
    }
  }
  X3_RETURN_IF_ERROR(reader.Close());
  table.finished_ = true;
  return table;
}

}  // namespace x3
