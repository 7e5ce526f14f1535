#include <algorithm>
#include <cstring>
#include <optional>

#include "cube/executor.h"
#include "cube/group_walk.h"
#include "storage/external_sorter.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace x3 {
namespace internal {
namespace {

void AppendMeasure(std::string* out, int64_t measure) {
  uint64_t u = static_cast<uint64_t>(measure);
  // uint64_t -> const char* byte view of an aligned local: char aliases
  // anything, so no strict-aliasing or alignment UB (audited). The bytes
  // are native-endian, but the field is an opaque trailer that never
  // participates in sort-key comparison and is read back via memcpy in
  // ReadMeasure, so the encoding round-trips on any host.
  out->append(reinterpret_cast<const char*>(&u), 8);
}

int64_t ReadMeasure(const char* p) {
  uint64_t u;
  std::memcpy(&u, p, 8);
  return static_cast<int64_t>(u);
}

/// Finishes `sorter` and counts the sort into ctx->costs(); its spill
/// bytes are also `stage`'s I/O detail for EXPLAIN ANALYZE.
Result<std::unique_ptr<SortedStream>> FinishSort(ExternalSorter* sorter,
                                                 ExecutionContext* ctx,
                                                 ScopedStageTimer* stage) {
  X3_ASSIGN_OR_RETURN(std::unique_ptr<SortedStream> stream, sorter->Finish());
  const SortStats& sort = sorter->stats();
  ExecutionCosts& costs = ctx->costs();
  costs.sorts.Add();
  costs.records_sorted.Add(sort.records);
  costs.spilled_runs.Add(sort.runs_spilled);
  costs.spill_bytes.Add(sort.spill_bytes);
  stage->AddBytes(sort.spill_bytes);
  return stream;
}

/// Computes one cuboid from the base fact table by sorting its group
/// tuples. Record layout: [group key, 4*k] [fact index as a key field,
/// 4 | absent] [measure, 8]. Fact indices are carried when `with_ids`
/// (the honest §3.5 version that must be able to eliminate duplicates);
/// the sorted stream is aggregated by tuple prefix with adjacent
/// (tuple, fact) duplicates collapsed.
Status CuboidFromBase(const FactTable& facts, const CubeLattice& lattice,
                      CuboidId cuboid, bool with_ids, ExecutionContext* ctx,
                      CubeResult* result) {
  ScopedStageTimer stage(
      ctx->stats(),
      StringPrintf("cuboid/%llu", static_cast<unsigned long long>(cuboid)),
      ctx->tracer());
  GroupWalk walk(lattice, cuboid, UncoveredAxis::kDropFact);
  const size_t key_len = walk.key_size();
  ExternalSorter sorter(ctx);
  ctx->costs().base_scans.Add();

  std::string record;
  for (size_t f = 0; f < facts.size(); ++f) {
    X3_RETURN_IF_ERROR(ctx->Poll());
    int64_t measure = facts.measure(f);
    Status add_status = Status::OK();
    walk.ForEachGroup(facts, f, [&](const GroupKey& key) {
      if (!add_status.ok()) return;
      record.assign(key);
      if (with_ids) AppendKeyField(&record, static_cast<uint32_t>(f));
      AppendMeasure(&record, measure);
      add_status = sorter.Add(record);
    });
    X3_RETURN_IF_ERROR(add_status);
  }

  X3_ASSIGN_OR_RETURN(std::unique_ptr<SortedStream> stream,
                      FinishSort(&sorter, ctx, &stage));

  std::string current_group;
  std::string last_dedup_key;
  bool have_group = false;
  AggregateState state;
  auto flush = [&]() {
    if (have_group) {
      result->MutableCell(cuboid, current_group)->Merge(state);
      stage.AddRows(1);
    }
    state = AggregateState{};
  };
  std::string rec;
  Status s;
  while (stream->Next(&rec, &s)) {
    X3_RETURN_IF_ERROR(ctx->Poll());
    std::string_view group(rec.data(), key_len);
    size_t dedup_len = with_ids ? key_len + kKeyFieldBytes : rec.size();
    std::string_view dedup_key(rec.data(), dedup_len);
    if (!have_group || group != current_group) {
      flush();
      current_group.assign(group);
      have_group = true;
      last_dedup_key.clear();
    } else if (with_ids && dedup_key == last_dedup_key) {
      continue;  // duplicate (group, fact) — eliminate
    }
    last_dedup_key.assign(dedup_key);
    state.Update(ReadMeasure(rec.data() + rec.size() - 8));
  }
  X3_RETURN_IF_ERROR(s);
  flush();
  return Status::OK();
}

/// TDOPT: runs one pipe — a single sort of one record per fact (value
/// or null per sort-order entry), then simultaneous prefix aggregation
/// for every covered cuboid. Correct only under disjointness (the
/// first admitted value is THE value).
Status RunPipe(const FactTable& facts, const CubePlanPipe& pipe,
               size_t pipe_index, ExecutionContext* ctx, CubeResult* result) {
  ScopedStageTimer stage(ctx->stats(), StringPrintf("pipe/%zu", pipe_index),
                         ctx->tracer());
  ExternalSorter sorter(ctx);
  ctx->costs().base_scans.Add();
  // Columnar scan state: one (mask column, value column, offsets, state)
  // tuple per sort-order entry, so the record-building loop below walks
  // the axis columns directly instead of calling back into the table.
  struct FieldCols {
    std::span<const AxisStateMask> masks;
    std::span<const ValueId> values;
    std::span<const uint32_t> offsets;
    AxisStateId state;
  };
  std::vector<FieldCols> fields;
  fields.reserve(pipe.sort_order.size());
  for (const auto& [axis, state] : pipe.sort_order) {
    fields.push_back(FieldCols{facts.AxisMaskColumn(axis),
                               facts.AxisValueColumn(axis),
                               facts.AxisOffsets(axis), state});
  }
  std::string record;
  for (size_t f = 0; f < facts.size(); ++f) {
    X3_RETURN_IF_ERROR(ctx->Poll());
    record.clear();
    for (const FieldCols& col : fields) {
      ValueId field = kNullKeyField;
      uint32_t hi = col.offsets[f + 1];
      for (uint32_t i = col.offsets[f]; i < hi; ++i) {
        if (FactTable::AdmittedAt(col.masks[i], col.state)) {
          field = col.values[i];  // disjointness: first admitted value
          break;
        }
      }
      AppendKeyField(&record, field);
    }
    AppendMeasure(&record, facts.measure(f));
    X3_RETURN_IF_ERROR(sorter.Add(record));
  }
  X3_ASSIGN_OR_RETURN(std::unique_ptr<SortedStream> stream,
                      FinishSort(&sorter, ctx, &stage));

  struct PrefixAgg {
    size_t k;
    CuboidId cuboid;
    /// Record-field indices of the first k sort-order axes in ascending
    /// axis order — group keys are always packed in axis order, while
    /// the pipe's sort order is a chain-friendly permutation.
    std::vector<size_t> field_order;
    std::string current;
    bool have = false;
    AggregateState state;
  };
  std::vector<PrefixAgg> aggs;
  for (const auto& [k, cuboid] : pipe.covered) {
    PrefixAgg agg;
    agg.k = k;
    agg.cuboid = cuboid;
    agg.field_order.resize(k);
    for (size_t i = 0; i < k; ++i) agg.field_order[i] = i;
    std::sort(agg.field_order.begin(), agg.field_order.end(),
              [&](size_t a, size_t b) {
                return pipe.sort_order[a].first < pipe.sort_order[b].first;
              });
    aggs.push_back(std::move(agg));
  }
  auto flush = [&](PrefixAgg* agg) {
    if (agg->have && agg->state.count > 0) {
      GroupKey key;
      key.reserve(agg->k * kKeyFieldBytes);
      for (size_t field : agg->field_order) {
        key.append(agg->current, field * kKeyFieldBytes, kKeyFieldBytes);
      }
      result->MutableCell(agg->cuboid, key)->Merge(agg->state);
      stage.AddRows(1);
    }
    agg->state = AggregateState{};
  };

  std::string rec;
  Status s;
  while (stream->Next(&rec, &s)) {
    X3_RETURN_IF_ERROR(ctx->Poll());
    int64_t measure = ReadMeasure(rec.data() + rec.size() - 8);
    for (PrefixAgg& agg : aggs) {
      std::string_view prefix(rec.data(), agg.k * kKeyFieldBytes);
      if (!agg.have || prefix != agg.current) {
        flush(&agg);
        agg.current.assign(prefix);
        agg.have = true;
      }
      // The row contributes only when all k fields are non-null.
      bool has_null = false;
      for (size_t i = 0; i < agg.k; ++i) {
        const char* field = rec.data() + i * kKeyFieldBytes;
        if (ReadKeyField(field) == kNullKeyField) {
          has_null = true;
          break;
        }
      }
      if (!has_null) agg.state.Update(measure);
    }
  }
  X3_RETURN_IF_ERROR(s);
  for (PrefixAgg& agg : aggs) flush(&agg);
  return Status::OK();
}

/// Computes cuboid `c` from already-computed less-relaxed neighbour `p`
/// along `edge`: LND edges aggregate the dropped axis away; structural
/// edges copy cells verbatim (valid under the coverage+disjointness
/// preconditions the planner established).
Status RollUp(const CubeLattice& lattice, CuboidId p, CuboidId c,
              const LatticeEdge& edge, ExecutionContext* ctx,
              CubeResult* result) {
  ScopedStageTimer stage(
      ctx->stats(),
      StringPrintf("cuboid/%llu", static_cast<unsigned long long>(c)),
      ctx->tracer());
  ctx->costs().rollups.Add();
  const auto& parent_cells = result->cuboid(p);
  if (!edge.to_absent) {
    // Structural relaxation: identical groups.
    for (const auto& [key, state] : parent_cells) {
      X3_RETURN_IF_ERROR(ctx->Poll());
      result->MutableCell(c, key)->Merge(state);
    }
    stage.AddRows(result->cuboid(c).size());
    return Status::OK();
  }
  // LND: drop the axis's field from each key and merge.
  std::vector<size_t> parent_present = lattice.PresentAxes(p);
  size_t drop_pos = 0;
  for (size_t i = 0; i < parent_present.size(); ++i) {
    if (parent_present[i] == edge.axis) {
      drop_pos = i;
      break;
    }
  }
  for (const auto& [key, state] : parent_cells) {
    X3_RETURN_IF_ERROR(ctx->Poll());
    GroupKey child_key;
    child_key.reserve(key.size() - kKeyFieldBytes);
    child_key.append(key, 0, drop_pos * kKeyFieldBytes);
    child_key.append(key, (drop_pos + 1) * kKeyFieldBytes, std::string::npos);
    result->MutableCell(c, child_key)->Merge(state);
  }
  stage.AddRows(result->cuboid(c).size());
  return Status::OK();
}

}  // namespace

/// Top-down family: pure plan interpreter. The four TD variants differ
/// only in the plans they produce (cube/plan.cc); execution is the same
/// loop over pipes and steps for all of them.
Result<CubeResult> ExecuteTopDown(const CubePlan& plan,
                                  const FactTable& facts,
                                  const CubeLattice& lattice,
                                  const CubeComputeOptions& options,
                                  ExecutionContext* ctx) {
  CubeResult result(lattice.num_cuboids(), options.aggregate);
  // Task layout per PlanStepDependencies: pipes first, then steps.
  // Pipes and base sorts are independent; a roll-up / copy step waits
  // on whichever task produces its source cuboid; a kSharedSort step is
  // a marker waiting on its pipe (the pipe writes its cells). At
  // parallelism 1 RunPlanTasks walks this list in index order, which is
  // byte-for-byte the old pipes-then-steps loop.
  const std::vector<std::vector<size_t>> deps = PlanStepDependencies(plan);
  std::vector<PlanTask> tasks;
  tasks.reserve(deps.size());
  for (size_t p = 0; p < plan.pipes.size(); ++p) {
    tasks.push_back(PlanTask{
        [&, p]() {
          return RunPipe(facts, plan.pipes[p], p, ctx, &result);
        },
        deps[p]});
  }
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const CuboidPlanStep& step = plan.steps[i];
    PlanTask task;
    task.deps = deps[plan.pipes.size() + i];
    switch (step.kind) {
      case CuboidPlanStep::Kind::kBaseWithIds:
      case CuboidPlanStep::Kind::kBaseNoIds:
        task.run = [&, step]() {
          return CuboidFromBase(
              facts, lattice, step.cuboid,
              step.kind == CuboidPlanStep::Kind::kBaseWithIds, ctx, &result);
        };
        break;
      case CuboidPlanStep::Kind::kRollup:
      case CuboidPlanStep::Kind::kCopy:
        task.run = [&, step]() -> Status {
          std::optional<LatticeEdge> edge =
              EdgeBetween(lattice, step.source, step.cuboid);
          X3_CHECK(edge.has_value());
          return RollUp(lattice, step.source, step.cuboid, *edge, ctx,
                        &result);
        };
        break;
      case CuboidPlanStep::Kind::kSharedSort:
        // Cells come from the pipe this task depends on; the task itself
        // is a scheduling marker so transitive readers (none today, but
        // the DAG allows them) wait correctly.
        task.run = [] { return Status::OK(); };
        break;
      default:
        return Status::Internal(
            StringPrintf("step kind %s not executable by the top-down "
                         "family",
                         CuboidPlanStepKindToString(step.kind)));
    }
    tasks.push_back(std::move(task));
  }
  X3_RETURN_IF_ERROR(
      RunPlanTasks(std::move(tasks), options.parallelism, ctx->query_id()));
  return result;
}

}  // namespace internal
}  // namespace x3
