#ifndef X3_CUBE_CUBE_RESULT_H_
#define X3_CUBE_CUBE_RESULT_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cube/aggregate.h"
#include "cube/fact_table.h"
#include "relax/cube_lattice.h"
#include "util/result.h"
#include "xml/xml_node.h"

namespace x3 {

/// A packed group key: the present axes' ValueIds in axis order, one
/// key field each (cube/group_walk.h: 4 big-endian bytes). Packing keeps
/// hash-map keys compact and makes bytewise sort order usable for
/// grouping.
using GroupKey = std::string;

GroupKey PackGroupKey(std::span<const ValueId> values);
std::vector<ValueId> UnpackGroupKey(const GroupKey& key);

/// Cells of one cuboid, keyed by packed group key.
using CellMap = std::unordered_map<GroupKey, AggregateState>;

/// Drops every cell whose distinct-fact count is below `min_count`
/// (the iceberg filter, HAVING COUNT >= min_count). No-op for
/// min_count <= 1.
void ApplyIcebergFilter(CellMap* cells, int64_t min_count);

/// The computed cube: one cell map per cuboid of the lattice.
///
/// Not internally synchronized, but safe under the parallel executor's
/// discipline: each cuboid's cell map is a distinct object touched by
/// exactly one plan task (MutableCell/mutable_cuboid on different
/// cuboids never share state), and a task reading another cuboid
/// (roll-up) is ordered after its producer by the scheduler. Whole-
/// result reads (Equals, ApplyIcebergFilter, TotalCells) require
/// quiescence — they run after the execution's join point.
class CubeResult {
 public:
  CubeResult(uint64_t num_cuboids, AggregateFunction fn);

  CubeResult(CubeResult&&) = default;
  CubeResult& operator=(CubeResult&&) = default;
  CubeResult(const CubeResult&) = delete;
  CubeResult& operator=(const CubeResult&) = delete;

  AggregateFunction function() const { return fn_; }
  uint64_t num_cuboids() const { return cells_.size(); }

  /// The cell for `key` in `cuboid`, created empty on first touch.
  AggregateState* MutableCell(CuboidId cuboid, const GroupKey& key);

  /// Read access; nullptr when the cell does not exist.
  const AggregateState* FindCell(CuboidId cuboid, const GroupKey& key) const;

  const CellMap& cuboid(CuboidId id) const { return cells_[id]; }
  CellMap* mutable_cuboid(CuboidId id) { return &cells_[id]; }

  /// Total number of non-empty cells across all cuboids (the paper's
  /// "cube result size").
  uint64_t TotalCells() const;

  /// Exact equality of all cells of all cuboids. On mismatch, when
  /// `diff` is non-null a short human-readable description of the first
  /// difference is stored there.
  bool Equals(const CubeResult& other, std::string* diff = nullptr) const;

  /// Writes "cuboid_id,axis values...,value" rows (values rendered via
  /// the fact table's dictionaries; absent axes print "-"). `env` =
  /// nullptr uses Env::Default().
  Status WriteCsv(const std::string& path, const CubeLattice& lattice,
                  const FactTable& facts, Env* env = nullptr) const;

  /// ApplyIcebergFilter over every cuboid.
  void ApplyIcebergFilter(int64_t min_count);

  /// Renders the cube as an XML document:
  ///   <cube function="COUNT">
  ///     <cuboid id="..." spec="...">
  ///       <cell value="..."><n>John</n><y>2003</y></cell>
  ///   ...
  /// Axis element names come from the lattice's axis names; absent axes
  /// are omitted from the cell. Deterministic (cells sorted by key).
  XmlDocument ToXml(const CubeLattice& lattice, const FactTable& facts) const;

 private:
  AggregateFunction fn_;
  std::vector<CellMap> cells_;
};

}  // namespace x3

#endif  // X3_CUBE_CUBE_RESULT_H_
