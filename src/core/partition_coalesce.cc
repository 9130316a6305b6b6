#include "core/partition_coalesce.h"

#include <map>

#include "relation/tuple_view.h"

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

  StatusOr<PartitionPlan> plan_or = Status::Internal("unset");
  {
    TraceSpan plan_span = SpanIf(ctx, Phase::kChooseIntervals);
    plan_or = PlanPartitions(in, options, ctx);
  }
  TEMPO_RETURN_IF_ERROR(plan_or.status());
  PartitionPlan plan = std::move(plan_or).value();

  // Grace-partition the input; a plan of one partition folds `in` itself.
  PartitionedRelation grace;
  std::vector<StoredRelation*> parts = {in};
  if (plan.num_partitions > 1) {
    TEMPO_ASSIGN_OR_RETURN(
        grace, GracePartition(in, plan.spec, options.buffer_pages,
                              PlacementPolicy::kLastOverlap,
                              in->name() + ".co"));
    parts = grace.Files();
  }

  uint64_t carried_runs = 0;
  Groups carry;
  for (size_t ii = parts.size(); ii-- > 0;) {
    const Interval& p_i = plan.spec.partition(ii);
    const bool last_step = ii == 0;
    // Fold this partition's tuples, viewed in place, into the carried
    // groups.
    Groups groups = std::move(carry);
    carry.clear();
    TEMPO_RETURN_IF_ERROR(parts[ii]->ForEachView([&](const TupleView& v) {
      groups[ValueKey(v)].push_back(v.interval());
      return Status::OK();
    }));
    // Merge each group's intervals into maximal runs: emit the runs that
    // start in p_i (all of them at the last step) and carry the rest.
    for (auto& [values, intervals] : groups) {
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
      if (!kept.empty()) carry[values] = std::move(kept);
    }
  }
  TEMPO_RETURN_IF_ERROR(out->Flush());

  JoinRunStats stats;
  stats.io = acct.stats() - before;
  stats.output_tuples = out->num_tuples();
  stats.Set(Metric::kPartitions, static_cast<double>(plan.num_partitions));
  stats.Set(Metric::kCarriedRuns, static_cast<double>(carried_runs));
  ExportMetrics(stats, ctx);
  return stats;
}

}  // namespace tempo
