#include "core/partition_coalesce.h"

#include <map>

#include "relation/tuple_view.h"

#include "core/determine_part_intervals.h"
#include "core/grace_partitioner.h"
#include "temporal/interval_set.h"

namespace tempo {

namespace {

/// Value-equivalence key: the serialized explicit attributes. Built from
/// the record view through the same Value::ToString per attribute, so the
/// key bytes — and hence the std::map iteration (output) order — are
/// identical to keying the decoded tuple.
std::string ValueKey(const TupleView& v) {
  std::string key;
  for (size_t i = 0; i < v.num_values(); ++i) {
    key += v.ValueAt(i).ToString();
    key.push_back('\x1f');
  }
  return key;
}

struct Group {
  std::vector<Value> values;
  std::vector<Interval> intervals;
};

/// Owning values of one record, materialized only when its group is first
/// seen.
std::vector<Value> MaterializeValues(const TupleView& v) {
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

  // Folds every record of `rel` into `groups`, viewing each in place;
  // owning values materialize only when a group is first seen.
  auto fold = [](StoredRelation* rel, std::map<std::string, Group>& groups) {
    return rel->ForEachView([&](const TupleView& v) {
      Group& g = groups[ValueKey(v)];
      if (g.values.empty()) g.values = MaterializeValues(v);
      g.intervals.push_back(v.interval());
      return Status::OK();
    });
  };

  // Helper shared by the single- and multi-partition paths: merge one
  // bucket of tuples and split the merged runs into emitted / carried.
  auto process_group = [&](Group& group, const Interval& p_i, bool last_step,
                           std::map<std::string, Group>* carry,
                           const std::string& key) -> Status {
    IntervalSet merged(std::move(group.intervals));
    std::vector<Interval> kept;
    for (const Interval& run : merged.intervals()) {
      if (last_step || run.start() > p_i.start()) {
        TEMPO_RETURN_IF_ERROR(out->Append(Tuple(group.values, run)));
      } else {
        kept.push_back(run);
        ++carried_runs;
      }
    }
    if (!kept.empty()) {
      Group g;
      g.values = std::move(group.values);
      g.intervals = std::move(kept);
      (*carry)[key] = std::move(g);
    }
    return Status::OK();
  };

  if (plan.num_partitions <= 1) {
    // Fits in memory: one pass over the input pages, folding records in
    // place.
    std::map<std::string, Group> groups;
    TEMPO_RETURN_IF_ERROR(fold(in, groups));
    for (auto& [key, group] : groups) {
      TEMPO_RETURN_IF_ERROR(process_group(group, Interval::All(),
                                          /*last_step=*/true, nullptr, key));
    }
  } else {
    TEMPO_ASSIGN_OR_RETURN(
        PartitionedRelation parts,
        GracePartition(in, plan.spec, options.buffer_pages,
                       PlacementPolicy::kLastOverlap, in->name() + ".co"));

    std::map<std::string, Group> carry;
    const size_t n = plan.spec.num_partitions();
    for (size_t ii = n; ii-- > 0;) {
      const Interval& p_i = plan.spec.partition(ii);
      const bool last_step = ii == 0;
      // Fold this partition's tuples into the carried groups.
      std::map<std::string, Group> groups = std::move(carry);
      carry.clear();
      TEMPO_RETURN_IF_ERROR(fold(parts.parts[ii].get(), groups));
      for (auto& [key, group] : groups) {
        TEMPO_RETURN_IF_ERROR(
            process_group(group, p_i, last_step, &carry, key));
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
