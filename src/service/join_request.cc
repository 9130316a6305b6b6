#include "service/join_request.h"

#include <algorithm>

#include "core/partition_join.h"
#include "core/planner.h"
#include "core/radix_join.h"
#include "join/indexed_join.h"
#include "join/nested_loop_join.h"
#include "join/reference_join.h"
#include "join/sort_merge_join.h"
#include "join/sweep_join.h"

namespace tempo {

const char* JoinExecutorName(JoinExecutor e) {
  switch (e) {
    case JoinExecutor::kAuto:
      return "auto";
    case JoinExecutor::kNestedLoop:
      return "nested-loop";
    case JoinExecutor::kSortMerge:
      return "sort-merge";
    case JoinExecutor::kIndexed:
      return "indexed";
    case JoinExecutor::kPartition:
      return "partition";
    case JoinExecutor::kReference:
      return "reference";
    case JoinExecutor::kInMemoryRadix:
      return "in-memory-radix";
    case JoinExecutor::kSweep:
      return "sweep";
  }
  return "unknown";
}

Status ValidateExecOptions(JoinExecutor executor, const ExecOptions& options) {
  const TemporalPredicate& pred = options.predicate;
  if (options.join_kind != JoinKind::kInner) {
    if (executor != JoinExecutor::kAuto &&
        executor != JoinExecutor::kPartition &&
        executor != JoinExecutor::kReference) {
      return Status::InvalidArgument(
          std::string("executor ") + JoinExecutorName(executor) +
          " cannot evaluate join kind " + JoinKindName(options.join_kind) +
          " under predicate '" + pred.Name() +
          "': sequenced outer/anti joins run on the partition executor "
          "(or auto, which routes there) or the reference oracle");
    }
    if (!pred.IsOverlapDefault()) {
      return Status::InvalidArgument(
          std::string("executor ") + JoinExecutorName(executor) +
          " cannot evaluate join kind " + JoinKindName(options.join_kind) +
          " under predicate '" + pred.Name() +
          "': sequenced outer/anti semantics are defined over the default "
          "overlap predicate only");
    }
    return Status::OK();
  }
  if (pred.ImpliesSharedChronon()) return Status::OK();
  if (!pred.HasDisjointNonAdjacent()) {
    if (executor == JoinExecutor::kAuto || executor == JoinExecutor::kSweep ||
        executor == JoinExecutor::kReference) {
      return Status::OK();
    }
    return Status::InvalidArgument(
        std::string("executor ") + JoinExecutorName(executor) +
        " cannot evaluate join kind " + JoinKindName(options.join_kind) +
        " under predicate '" + pred.Name() +
        "': adjacency relations (meets/met-by) need the sweep executor, "
        "auto planning, or the reference oracle");
  }
  if (executor == JoinExecutor::kReference) return Status::OK();
  return Status::InvalidArgument(
      std::string("executor ") + JoinExecutorName(executor) +
      " cannot evaluate join kind " + JoinKindName(options.join_kind) +
      " under predicate '" + pred.Name() +
      "': before/after match unboundedly separated tuples, which only the "
      "reference oracle evaluates");
}

namespace {

/// The oracle as an executor: both inputs read fully (charged as
/// sequential scans), joined in memory, results appended through the
/// canonical writer (sorted serialized records). Canonical order makes an
/// oracle run byte-identical to any executor run of the same request —
/// the partition executor's sequenced variants and the sweep executor
/// write the same canonical order — and to itself regardless of the
/// predicate. Inner joins evaluate the request's TemporalPredicate via
/// ReferenceTemporalJoin (the single ground truth for every executor x
/// predicate pair); the sequenced outer/anti kinds are defined over the
/// default overlap predicate, which ValidateExecOptions guarantees here.
StatusOr<JoinRunStats> RunReferenceJoin(StoredRelation* r, StoredRelation* s,
                                        StoredRelation* out,
                                        const ExecOptions& options,
                                        ExecContext* ctx) {
  JoinKind kind = options.join_kind;
  TEMPO_RETURN_IF_ERROR(PrepareJoinForKind(r, s, out, kind).status());
  Disk* disk = r->disk();
  IoAccountant& acct = disk->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  IoStats before = acct.stats();
  TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> r_tuples, r->ReadAll());
  TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> s_tuples, s->ReadAll());
  std::vector<Tuple> result;
  if (kind == JoinKind::kInner) {
    TEMPO_ASSIGN_OR_RETURN(
        result, ReferenceTemporalJoin(r->schema(), r_tuples, s->schema(),
                                      s_tuples, options.predicate));
  } else {
    TEMPO_ASSIGN_OR_RETURN(
        result, ReferenceSequencedJoin(r->schema(), r_tuples, s->schema(),
                                       s_tuples, kind));
  }
  ResultWriter writer = ResultWriter::Canonical(out);
  for (const Tuple& t : result) {
    TEMPO_RETURN_IF_ERROR(writer.EmitAssembled(t));
  }
  TEMPO_RETURN_IF_ERROR(writer.Finish());
  JoinRunStats stats;
  stats.io = acct.stats() - before;
  stats.output_tuples = result.size();
  if (kind != JoinKind::kInner) {
    stats.Set(Metric::kSequencedJoinKind,
              static_cast<double>(static_cast<uint8_t>(kind)));
  }
  ExportMetrics(stats, ctx);
  return stats;
}

Status ValidateJoinAttrs(const JoinRequest& req) {
  if (req.expected_join_attrs.empty()) return Status::OK();
  TEMPO_ASSIGN_OR_RETURN(
      NaturalJoinLayout layout,
      DeriveNaturalJoinLayout(req.r->schema(), req.s->schema()));
  std::vector<std::string> actual;
  actual.reserve(layout.r_join_attrs.size());
  for (size_t pos : layout.r_join_attrs) {
    actual.push_back(req.r->schema().attribute(pos).name);
  }
  std::vector<std::string> expected = req.expected_join_attrs;
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  if (actual != expected) {
    std::string got = "{";
    for (const std::string& a : actual) {
      if (got.size() > 1) got += ", ";
      got += a;
    }
    got += "}";
    std::string want = "{";
    for (const std::string& a : expected) {
      if (want.size() > 1) want += ", ";
      want += a;
    }
    want += "}";
    return Status::InvalidArgument("join attributes mismatch: schemas share " +
                                   got + " but the request expects " + want);
  }
  return Status::OK();
}

/// Runs the named executor `executor` (never kAuto) on `req`: the one
/// switch that calls executor functions, for named requests and for the
/// planner's pick alike.
StatusOr<JoinRunStats> RunExecutor(JoinExecutor executor,
                                   const JoinRequest& req,
                                   StoredRelation* out, ExecContext* ctx) {
  switch (executor) {
    case JoinExecutor::kAuto:
      break;
    case JoinExecutor::kNestedLoop:
      return NestedLoopVtJoin(req.r, req.s, out, req.options, ctx);
    case JoinExecutor::kSortMerge:
      return SortMergeVtJoin(req.r, req.s, out, req.options, ctx);
    case JoinExecutor::kIndexed:
      return IndexedVtJoin(req.r, req.s, out, req.options, ctx);
    case JoinExecutor::kPartition: {
      PartitionJoinOptions part;
      static_cast<ExecOptions&>(part) = req.options;
      return PartitionVtJoin(req.r, req.s, out, part, ctx);
    }
    case JoinExecutor::kReference:
      return RunReferenceJoin(req.r, req.s, out, req.options, ctx);
    case JoinExecutor::kInMemoryRadix: {
      RadixJoinOptions radix;
      static_cast<ExecOptions&>(radix) = req.options;
      return RadixVtJoin(req.r, req.s, out, radix, ctx);
    }
    case JoinExecutor::kSweep:
      return SweepVtJoin(req.r, req.s, out, req.options, ctx);
  }
  return Status::InvalidArgument("unknown executor");
}

/// The executor that runs a planned algorithm, and the root phase its
/// span opens.
struct PlannedRoute {
  JoinExecutor executor;
  Phase root;
};

PlannedRoute RouteOf(JoinAlgorithm a) {
  switch (a) {
    case JoinAlgorithm::kNestedLoop:
      return {JoinExecutor::kNestedLoop, Phase::kNestedLoop};
    case JoinAlgorithm::kSortMerge:
      return {JoinExecutor::kSortMerge, Phase::kSortMerge};
    case JoinAlgorithm::kPartition:
      return {JoinExecutor::kPartition, Phase::kPartitionJoin};
    case JoinAlgorithm::kInMemoryRadix:
      return {JoinExecutor::kInMemoryRadix, Phase::kRadixJoin};
    case JoinAlgorithm::kSweep:
      return {JoinExecutor::kSweep, Phase::kSweepJoin};
  }
  return {JoinExecutor::kPartition, Phase::kPartitionJoin};
}

/// RunJoin's kAuto branch: plans with PlanVtJoin, then runs the pick
/// through RunExecutor (the contract is documented on RunJoin).
StatusOr<JoinRunStats> RunPlanned(const JoinRequest& req, StoredRelation* out,
                                  ExecContext* ctx) {
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&req.r->disk()->accountant());
  }
  if (req.options.join_kind != JoinKind::kInner) {
    // The sequenced outer/anti variants are implemented only by the
    // partition executor (coverage tracking rides on its dedup rule), so
    // the plan is forced rather than costed.
    const double partition =
        static_cast<double>(static_cast<int>(JoinAlgorithm::kPartition));
    SetMetric(ctx, Metric::kPlannedAlgorithm, partition);
    StatusOr<JoinRunStats> stats =
        RunExecutor(JoinExecutor::kPartition, req, out, ctx);
    if (stats.ok()) {
      stats->Set(Metric::kPlannedAlgorithm, partition);
      ExportMetrics(*stats, ctx);
    }
    return stats;
  }
  JoinPlan plan;
  {
    TraceSpan plan_span = SpanIf(ctx, Phase::kPlan);
    plan = PlanVtJoin(req.r, req.s, req.options);
  }
  const PlannedRoute route = RouteOf(plan.algorithm);
  const double est = plan.candidates.front().estimated_cost;
  if (ctx != nullptr) {
    // Pre-annotate the chosen executor's root span, and record the
    // footprint-vs-budget decision inputs whichever path was chosen, so
    // EXPLAIN ANALYZE can show why the radix path was (not) taken.
    ctx->AnnotateEstimate(route.root, est);
    SetMetric(ctx, Metric::kRadixEstFootprintBytes,
              static_cast<double>(EstimateRadixFootprintBytes(
                  req.r->num_pages(), req.s->num_pages())));
    SetMetric(ctx, Metric::kRadixBudgetBytes,
              static_cast<double>(ResolveRadixBudgetBytes(req.options)));
  }
  StatusOr<JoinRunStats> stats = RunExecutor(route.executor, req, out, ctx);
  const bool radix_fallback =
      route.executor == JoinExecutor::kInMemoryRadix && !stats.ok() &&
      stats.status().code() == StatusCode::kResourceExhausted;
  if (radix_fallback) {
    // The optimistic plan-time footprint was wrong: extraction hit the
    // budget. Nothing was emitted yet, so clear and rerun on the paged
    // Grace path.
    TEMPO_RETURN_IF_ERROR(out->Clear());
    stats = RunExecutor(JoinExecutor::kPartition, req, out, ctx);
  }
  if (stats.ok()) {
    if (radix_fallback) stats->Set(Metric::kRadixFallback, 1.0);
    stats->Set(Metric::kPlannedAlgorithm,
               static_cast<double>(static_cast<int>(plan.algorithm)));
    stats->Set(Metric::kPlannedCost, est);
    ExportMetrics(*stats, ctx);
  }
  return stats;
}

}  // namespace

StatusOr<JoinRunStats> RunJoin(const JoinRequest& req, StoredRelation* out,
                               ExecContext* ctx) {
  if (req.r == nullptr || req.s == nullptr) {
    return Status::InvalidArgument(
        "JoinRequest has no input relations (call From)");
  }
  if (out == nullptr) {
    return Status::InvalidArgument("RunJoin needs an output relation");
  }
  if (out == req.r || out == req.s) {
    return Status::InvalidArgument(
        "output relation must be distinct from the inputs");
  }
  TEMPO_RETURN_IF_ERROR(ValidateJoinAttrs(req));
  TEMPO_RETURN_IF_ERROR(ValidateExecOptions(req.executor, req.options));

  StatusOr<JoinRunStats> result =
      req.executor == JoinExecutor::kAuto
          ? RunPlanned(req, out, ctx)
          : RunExecutor(req.executor, req, out, ctx);
  if (result.ok() && !req.options.predicate.IsOverlapDefault()) {
    result->Set(Metric::kJoinPredicateMask,
                static_cast<double>(req.options.predicate.mask()));
  }
  return result;
}

}  // namespace tempo
