#include <algorithm>
#include <numeric>

#include "cube/executor.h"
#include "util/logging.h"

namespace x3 {
namespace internal {
namespace {

/// Bottom-up cube computation (§3.4), XMLized from Beyer-Ramakrishnan
/// BUC: recursive refinement starting from the most relaxed grouping.
/// The recursion walks the axes left to right; at axis `a` it branches
/// over every relaxation state of that axis. The "absent" state leaves
/// the current row set untouched; a present state partitions the rows
/// by admitted grouping value — possibly into *overlapping* partitions
/// when disjointness fails (a fact with several admitted values joins
/// several partitions, §3.4's "consider all elements ... including
/// those that have already satisfied the restrictions for some other
/// children").
///
/// Reaching the end of the axis list emits one cube cell: the cuboid is
/// the tuple of chosen states, the group the tuple of chosen values,
/// and the rows are exactly the facts of that group (each exactly
/// once: FactTable::AddBinding keeps a fact's values on one axis
/// distinct, so a fact yields at most one pair per value). Row lists
/// are ascending fact ids.
class BucComputation {
 public:
  BucComputation(CubeAlgorithm variant, const FactTable& facts,
                 const CubeLattice& lattice,
                 const CubeComputeOptions& options, ExecutionContext* ctx)
      : variant_(variant),
        facts_(facts),
        lattice_(lattice),
        options_(options),
        ctx_(ctx),
        result_(lattice.num_cuboids(), options.aggregate),
        states_(lattice.num_axes(), 0) {}

  Result<CubeResult> Run() {
    ScopedStageTimer timer(ctx_->stats(), "partition-walk", ctx_->tracer());
    std::vector<uint32_t> rows(facts_.size());
    std::iota(rows.begin(), rows.end(), 0);
    ctx_->costs().base_scans.Add();
    Status status = Recurse(0, rows);
    // The partition loop counts into members; the context gets the
    // totals once, on every exit.
    ctx_->costs().partitions.Add(partitions_);
    ctx_->costs().partition_rows.Add(partition_rows_);
    X3_RETURN_IF_ERROR(status);
    timer.AddRows(result_.TotalCells());
    return std::move(result_);
  }

 private:
  /// True when this variant may take the single-value fast path at
  /// (axis, state).
  bool AssumeDisjoint(size_t axis, AxisStateId state) const {
    switch (variant_) {
      case CubeAlgorithm::kBUC:
        return false;
      case CubeAlgorithm::kBUCOpt:
        return true;
      case CubeAlgorithm::kBUCCust:
        return options_.properties != nullptr &&
               options_.properties->At(axis, state).disjoint;
      default:
        return false;
    }
  }

  Status Recurse(size_t axis, const std::vector<uint32_t>& rows) {
    X3_RETURN_IF_ERROR(ctx_->Poll());
    // Iceberg pruning: every deeper group is a subset of `rows`, so
    // nothing below the threshold can qualify (Beyer-Ramakrishnan).
    if (options_.min_count > 1 &&
        rows.size() < static_cast<size_t>(options_.min_count)) {
      return Status::OK();
    }
    if (axis == lattice_.num_axes()) {
      Emit(rows);
      return Status::OK();
    }
    const AxisLattice& axis_lattice = lattice_.axis(axis);
    // Columnar scan state for this axis: the partition loops below walk
    // the mask/value columns directly through the shared offset index.
    std::span<const AxisStateMask> masks = facts_.AxisMaskColumn(axis);
    std::span<const ValueId> values = facts_.AxisValueColumn(axis);
    std::span<const uint32_t> offsets = facts_.AxisOffsets(axis);
    for (AxisStateId s = 0; s < axis_lattice.num_states(); ++s) {
      states_[axis] = s;
      if (!axis_lattice.state(s).grouping_present()) {
        // Absent: the axis groups nothing; rows pass through unchanged.
        X3_RETURN_IF_ERROR(Recurse(axis + 1, rows));
        continue;
      }
      // Partition rows by admitted value at (axis, s): gather
      // (value, row) pairs and sort by value — BUC's counting-sort
      // style partitioning; runs of equal values are the partitions.
      // Under overlap a fact contributes one pair per admitted value
      // (§3.4's replicated membership); empty partitions never exist
      // and recursion prunes automatically.
      std::vector<std::pair<ValueId, uint32_t>> pairs;
      pairs.reserve(rows.size());
      bool fast = AssumeDisjoint(axis, s);
      for (uint32_t row : rows) {
        for (uint32_t i = offsets[row]; i < offsets[row + 1]; ++i) {
          if (!FactTable::AdmittedAt(masks[i], s)) continue;
          pairs.emplace_back(values[i], row);
          if (fast) break;  // disjointness assumed: first admitted value
        }
      }
      std::sort(pairs.begin(), pairs.end());
      size_t charged = pairs.size() * sizeof(pairs[0]);
      partition_rows_ += pairs.size();
      MemoryBudget* budget = ctx_->budget();
      if (budget != nullptr) budget->ForceReserve(charged);
      // The charge must be released on every exit, including an error
      // (cancellation) surfacing from a deeper level — collect the
      // status and fall through to the Release.
      Status status = Status::OK();
      std::vector<uint32_t> partition;
      for (size_t i = 0; i < pairs.size() && status.ok();) {
        ValueId v = pairs[i].first;
        partition.clear();
        while (i < pairs.size() && pairs[i].first == v) {
          partition.push_back(pairs[i].second);
          ++i;
        }
        ++partitions_;
        values_.push_back(v);
        status = Recurse(axis + 1, partition);
        values_.pop_back();
      }
      if (budget != nullptr) budget->Release(charged);
      X3_RETURN_IF_ERROR(status);
    }
    return Status::OK();
  }

  void Emit(const std::vector<uint32_t>& rows) {
    if (rows.empty()) return;
    CuboidId cuboid = lattice_.Encode(states_);
    GroupKey key = PackGroupKey(values_);
    AggregateState* cell = result_.MutableCell(cuboid, key);
    for (uint32_t row : rows) cell->Update(facts_.measure(row));
  }

  CubeAlgorithm variant_;
  const FactTable& facts_;
  const CubeLattice& lattice_;
  const CubeComputeOptions& options_;
  ExecutionContext* ctx_;
  CubeResult result_;
  std::vector<AxisStateId> states_;
  std::vector<ValueId> values_;
  uint64_t partitions_ = 0;
  uint64_t partition_rows_ = 0;
};

}  // namespace

/// Bottom-up family: the plan's kPartitionRecurse steps are emitted by
/// one recursive walk; the variant (from the plan) decides where the
/// single-value fast path applies.
///
/// This family ignores options.parallelism and always runs on the
/// calling thread: the recursion does not decompose at cuboid
/// granularity — sibling partitions of the walk emit cells into the
/// *same* cuboid maps (every cuboid aggregates contributions from many
/// partitions), so there is no per-cuboid task with a single writer to
/// schedule. Splitting the top-level partitions instead would need
/// per-cell synchronization or a merge phase that forfeits BUC's
/// iceberg pruning. The differential tests still sweep this family at
/// every parallelism (the knob is simply a no-op here).
Result<CubeResult> ExecuteBottomUp(const CubePlan& plan,
                                   const FactTable& facts,
                                   const CubeLattice& lattice,
                                   const CubeComputeOptions& options,
                                   ExecutionContext* ctx) {
  if (plan.algorithm == CubeAlgorithm::kBUCCust &&
      options.properties == nullptr) {
    X3_LOG(Info) << "BUCCUST without a property map runs as plain BUC";
  }
  BucComputation computation(plan.algorithm, facts, lattice, options, ctx);
  return computation.Run();
}

}  // namespace internal
}  // namespace x3
