#include "core/partition_coalesce.h"

#include <map>

#include "relation/tuple_view.h"

#include "core/determine_part_intervals.h"
#include "core/grace_partitioner.h"
#include "temporal/interval_set.h"

namespace tempo {

namespace {

/// Value-equivalence groups: the explicit attributes (Value order, NULL
/// equal to NULL) mapped to the validity intervals seen so far. The map's
/// key order is the output order.
using Groups = std::map<std::vector<Value>, std::vector<Interval>>;

/// Owning values of one record: the group key.
std::vector<Value> ValueKey(const TupleView& v) {
  std::vector<Value> out;
  out.reserve(v.num_values());
  for (size_t i = 0; i < v.num_values(); ++i) out.push_back(v.ValueAt(i));
  return out;
}

}  // namespace

StatusOr<JoinRunStats> PartitionCoalesce(StoredRelation* in,
                                         StoredRelation* out,
                                         const PartitionJoinOptions& options,
                                         ExecContext* ctx) {
  if (in == nullptr || out == nullptr) {
    return Status::InvalidArgument("inputs must be non-null");
  }
  if (!(out->schema() == in->schema())) {
    return Status::InvalidArgument("output schema must match the input's");
  }
  if (in->HasUnflushedAppends()) {
    return Status::FailedPrecondition("input must be flushed");
  }
  Disk* disk = in->disk();
  IoAccountant& acct = disk->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  IoStats before = acct.stats();
  TraceSpan coalesce_span = SpanIf(ctx, Phase::kCoalesce);

  Random rng(options.seed);
  PartitionPlanOptions plan_options;
  plan_options.buffer_pages = options.buffer_pages;
  plan_options.cost_model = options.cost_model;
  plan_options.forced_num_partitions = options.forced_num_partitions;
  StatusOr<PartitionPlan> plan_or = Status::Internal("unset");
  {
    TraceSpan plan_span = SpanIf(ctx, Phase::kChooseIntervals);
    plan_or = DeterminePartIntervals(in, plan_options, &rng, ctx);
  }
  TEMPO_RETURN_IF_ERROR(plan_or.status());
  PartitionPlan plan = std::move(plan_or).value();

  JoinRunStats stats;
  uint64_t carried_runs = 0;

  // Folds every record of `rel` into `groups`, viewing each in place.
  auto fold = [](StoredRelation* rel, Groups& groups) {
    return rel->ForEachView([&](const TupleView& v) {
      groups[ValueKey(v)].push_back(v.interval());
      return Status::OK();
    });
  };

  // Helper shared by the single- and multi-partition paths: merge one
  // group's intervals and split the merged runs into emitted / carried.
  auto process_group = [&](const std::vector<Value>& values,
                           std::vector<Interval>& intervals,
                           const Interval& p_i, bool last_step,
                           Groups* carry) -> Status {
    IntervalSet merged(std::move(intervals));
    std::vector<Interval> kept;
    for (const Interval& run : merged.intervals()) {
      if (last_step || run.start() > p_i.start()) {
        TEMPO_RETURN_IF_ERROR(out->Append(Tuple(values, run)));
      } else {
        kept.push_back(run);
        ++carried_runs;
      }
    }
    if (!kept.empty()) (*carry)[values] = std::move(kept);
    return Status::OK();
  };

  if (plan.num_partitions <= 1) {
    // Fits in memory: one pass over the input pages, folding records in
    // place.
    Groups groups;
    TEMPO_RETURN_IF_ERROR(fold(in, groups));
    for (auto& [values, intervals] : groups) {
      TEMPO_RETURN_IF_ERROR(process_group(values, intervals, Interval::All(),
                                          /*last_step=*/true, nullptr));
    }
  } else {
    TEMPO_ASSIGN_OR_RETURN(
        PartitionedRelation parts,
        GracePartition(in, plan.spec, options.buffer_pages,
                       PlacementPolicy::kLastOverlap, in->name() + ".co"));

    Groups carry;
    const size_t n = plan.spec.num_partitions();
    for (size_t ii = n; ii-- > 0;) {
      const Interval& p_i = plan.spec.partition(ii);
      const bool last_step = ii == 0;
      // Fold this partition's tuples into the carried groups.
      Groups groups = std::move(carry);
      carry.clear();
      TEMPO_RETURN_IF_ERROR(fold(parts.parts[ii].get(), groups));
      for (auto& [values, intervals] : groups) {
        TEMPO_RETURN_IF_ERROR(
            process_group(values, intervals, p_i, last_step, &carry));
      }
    }
  }
  TEMPO_RETURN_IF_ERROR(out->Flush());

  stats.io = acct.stats() - before;
  stats.output_tuples = out->num_tuples();
  stats.Set(Metric::kPartitions, static_cast<double>(plan.num_partitions));
  stats.Set(Metric::kCarriedRuns, static_cast<double>(carried_runs));
  ExportMetrics(stats, ctx);
  return stats;
}

}  // namespace tempo
