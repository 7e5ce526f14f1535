#include "cube/cube_result.h"

#include <algorithm>

#include "cube/group_walk.h"
#include "util/env.h"
#include "util/string_util.h"

namespace x3 {

GroupKey PackGroupKey(std::span<const ValueId> values) {
  GroupKey key(values.size() * kKeyFieldBytes, '\0');
  for (size_t i = 0; i < values.size(); ++i) {
    WriteKeyField(key.data() + i * kKeyFieldBytes, values[i]);
  }
  return key;
}

std::vector<ValueId> UnpackGroupKey(const GroupKey& key) {
  std::vector<ValueId> values(key.size() / kKeyFieldBytes);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = ReadKeyField(key.data() + i * kKeyFieldBytes);
  }
  return values;
}

CubeResult::CubeResult(uint64_t num_cuboids, AggregateFunction fn)
    : fn_(fn), cells_(num_cuboids) {}

AggregateState* CubeResult::MutableCell(CuboidId cuboid, const GroupKey& key) {
  return &cells_[cuboid][key];
}

const AggregateState* CubeResult::FindCell(CuboidId cuboid,
                                           const GroupKey& key) const {
  const auto& map = cells_[cuboid];
  auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

uint64_t CubeResult::TotalCells() const {
  uint64_t total = 0;
  for (const auto& map : cells_) total += map.size();
  return total;
}

bool CubeResult::Equals(const CubeResult& other, std::string* diff) const {
  if (cells_.size() != other.cells_.size()) {
    if (diff != nullptr) {
      *diff = StringPrintf("cuboid count %zu vs %zu", cells_.size(),
                           other.cells_.size());
    }
    return false;
  }
  for (size_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c].size() != other.cells_[c].size()) {
      if (diff != nullptr) {
        *diff = StringPrintf("cuboid %zu: %zu cells vs %zu", c,
                             cells_[c].size(), other.cells_[c].size());
      }
      return false;
    }
    for (const auto& [key, state] : cells_[c]) {
      auto it = other.cells_[c].find(key);
      if (it == other.cells_[c].end()) {
        if (diff != nullptr) {
          *diff = StringPrintf("cuboid %zu: missing cell", c);
        }
        return false;
      }
      if (!(state == it->second)) {
        if (diff != nullptr) {
          *diff = StringPrintf(
              "cuboid %zu: cell differs (count %lld vs %lld)", c,
              static_cast<long long>(state.count),
              static_cast<long long>(it->second.count));
        }
        return false;
      }
    }
  }
  return true;
}

XmlDocument CubeResult::ToXml(const CubeLattice& lattice,
                              const FactTable& facts) const {
  auto root = XmlNode::Element("cube");
  root->SetAttribute("function", AggregateFunctionToString(fn_));
  root->SetAttribute(
      "cuboids", StringPrintf("%zu", cells_.size()));
  for (CuboidId c = 0; c < cells_.size(); ++c) {
    XmlNode* cuboid = root->AddElement("cuboid");
    cuboid->SetAttribute("id",
                         StringPrintf("%llu",
                                      static_cast<unsigned long long>(c)));
    cuboid->SetAttribute("spec", lattice.DescribeCuboid(c));
    std::vector<size_t> present = lattice.PresentAxes(c);
    std::vector<const GroupKey*> keys;
    keys.reserve(cells_[c].size());
    for (const auto& [key, state] : cells_[c]) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const GroupKey* a, const GroupKey* b) { return *a < *b; });
    for (const GroupKey* key : keys) {
      XmlNode* cell = cuboid->AddElement("cell");
      const AggregateState& state = cells_[c].at(*key);
      cell->SetAttribute("value", StringPrintf("%.6g", state.Value(fn_)));
      std::vector<ValueId> values = UnpackGroupKey(*key);
      for (size_t i = 0; i < present.size() && i < values.size(); ++i) {
        const std::string& axis_name =
            lattice.axis(present[i]).name().empty()
                ? StringPrintf("axis%zu", present[i])
                : lattice.axis(present[i]).name();
        cell->AddElementWithText(axis_name,
                                 facts.AxisValueName(present[i], values[i]));
      }
    }
  }
  return XmlDocument(std::move(root));
}

void ApplyIcebergFilter(CellMap* cells, int64_t min_count) {
  if (min_count <= 1) return;
  std::erase_if(*cells, [&](const CellMap::value_type& cell) {
    return cell.second.count < min_count;
  });
}

void CubeResult::ApplyIcebergFilter(int64_t min_count) {
  for (CellMap& cells : cells_) x3::ApplyIcebergFilter(&cells, min_count);
}

Status CubeResult::WriteCsv(const std::string& path,
                            const CubeLattice& lattice,
                            const FactTable& facts, Env* env) const {
  SequentialFileWriter writer;
  X3_RETURN_IF_ERROR(
      writer.Open(env != nullptr ? env : Env::Default(), path));
  std::string line = "cuboid";
  for (size_t a = 0; a < lattice.num_axes(); ++a) {
    line += ",";
    line += lattice.axis(a).name().empty()
                ? StringPrintf("axis%zu", a)
                : lattice.axis(a).name();
  }
  line += ",";
  line += AggregateFunctionToString(fn_);
  line += "\n";
  X3_RETURN_IF_ERROR(writer.Append(line));
  for (CuboidId c = 0; c < cells_.size(); ++c) {
    std::vector<size_t> present = lattice.PresentAxes(c);
    // Deterministic output: sort keys.
    std::vector<const GroupKey*> keys;
    keys.reserve(cells_[c].size());
    for (const auto& [key, state] : cells_[c]) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const GroupKey* a, const GroupKey* b) { return *a < *b; });
    for (const GroupKey* key : keys) {
      std::vector<ValueId> values = UnpackGroupKey(*key);
      line = StringPrintf("%llu", static_cast<unsigned long long>(c));
      size_t vi = 0;
      for (size_t a = 0; a < lattice.num_axes(); ++a) {
        line += ",";
        bool is_present =
            std::find(present.begin(), present.end(), a) != present.end();
        if (is_present && vi < values.size()) {
          line += facts.AxisValueName(a, values[vi++]);
        } else {
          line += "-";
        }
      }
      const AggregateState& state = cells_[c].at(*key);
      line += StringPrintf(",%.6g", state.Value(fn_));
      line += "\n";
      X3_RETURN_IF_ERROR(writer.Append(line));
    }
  }
  return writer.Close();
}

}  // namespace x3
