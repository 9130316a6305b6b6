#include "service/join_request.h"

#include <algorithm>

#include "core/partition_join.h"
#include "core/planner.h"
#include "core/radix_join.h"
#include "join/reference_join.h"
#include "service/executor_bodies.h"

namespace tempo {

namespace {

/// The oracle as an executor body: both inputs read fully (charged as
/// sequential scans), joined in memory, results appended through the
/// canonical writer (sorted serialized records). Canonical order makes an
/// oracle run byte-identical to any executor run of the same request —
/// the partition executor's sequenced variants and the sweep executor
/// write the same canonical order — and to itself regardless of the
/// predicate. Inner joins evaluate the request's TemporalPredicate via
/// ReferenceTemporalJoin (the single ground truth for every executor x
/// predicate pair); the sequenced outer/anti kinds are defined over the
/// default overlap predicate, which ValidateExecOptions guarantees here.
/// Traced as one kReferenceJoin span.
StatusOr<JoinRunStats> ReferenceBody(StoredRelation* r, StoredRelation* s,
                                     StoredRelation* out,
                                     const ExecOptions& options,
                                     ExecContext* ctx) {
  TraceSpan span = SpanIf(ctx, Phase::kReferenceJoin);
  JoinKind kind = options.join_kind;
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
  stats.output_tuples = result.size();
  if (kind != JoinKind::kInner) {
    stats.Set(Metric::kSequencedJoinKind,
              static_cast<double>(static_cast<uint8_t>(kind)));
  }
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

/// Runs the body of `executor` (never kAuto): the one switch over the
/// executor bodies, for named requests and for the planner's pick alike.
StatusOr<JoinRunStats> RunBody(JoinExecutor executor, const JoinRequest& req,
                               const NaturalJoinLayout& layout,
                               StoredRelation* out, ExecContext* ctx) {
  StoredRelation* r = req.r;
  StoredRelation* s = req.s;
  const ExecOptions& options = req.options;
  switch (executor) {
    case JoinExecutor::kAuto:
      break;
    case JoinExecutor::kNestedLoop:
      return NestedLoopBody(layout, r, s, out, options, ctx);
    case JoinExecutor::kSortMerge:
      return SortMergeBody(layout, r, s, out, options, ctx);
    case JoinExecutor::kIndexed:
      return IndexedBody(layout, r, s, out, options, ctx);
    case JoinExecutor::kPartition: {
      PartitionJoinOptions part;
      static_cast<ExecOptions&>(part) = options;
      return PartitionBody(layout, r, s, out, part, ctx);
    }
    case JoinExecutor::kReference:
      return ReferenceBody(r, s, out, options, ctx);
    case JoinExecutor::kInMemoryRadix:
      return RadixBody(layout, r, s, out, options, ctx);
    case JoinExecutor::kSweep:
      return SweepBody(layout, r, s, out, options, ctx);
  }
  return Status::InvalidArgument("unknown executor");
}

/// Runs `executor` on `req` under the run contract. `planned` — the
/// planner's metrics of a kAuto run, or null — joins the run's metrics
/// before the contract exports them.
StatusOr<JoinRunStats> RunExecutor(JoinExecutor executor,
                                   const JoinRequest& req, StoredRelation* out,
                                   ExecContext* ctx,
                                   const MetricsRegistry* planned = nullptr) {
  return RunJoinContract(
      executor, req.r, req.s, out, req.options, ctx,
      [&](const NaturalJoinLayout& layout) -> StatusOr<JoinRunStats> {
        TEMPO_ASSIGN_OR_RETURN(JoinRunStats stats,
                               RunBody(executor, req, layout, out, ctx));
        if (planned != nullptr) stats.metrics.Merge(*planned);
        return stats;
      });
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
  TEMPO_RETURN_IF_ERROR(ValidateExecOptions(JoinExecutor::kAuto, req.options));
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&req.r->disk()->accountant());
  }
  MetricsRegistry planned;
  if (req.options.join_kind != JoinKind::kInner) {
    // The sequenced outer/anti variants are implemented only by the
    // partition executor (coverage tracking rides on its dedup rule), so
    // the plan is forced rather than costed.
    const double partition =
        static_cast<double>(static_cast<int>(JoinAlgorithm::kPartition));
    SetMetric(ctx, Metric::kPlannedAlgorithm, partition);
    planned.Set(Metric::kPlannedAlgorithm, partition);
    return RunExecutor(JoinExecutor::kPartition, req, out, ctx, &planned);
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
  planned.Set(Metric::kPlannedAlgorithm,
              static_cast<double>(static_cast<int>(plan.algorithm)));
  planned.Set(Metric::kPlannedCost, est);
  StatusOr<JoinRunStats> stats =
      RunExecutor(route.executor, req, out, ctx, &planned);
  if (route.executor == JoinExecutor::kInMemoryRadix && !stats.ok() &&
      stats.status().code() == StatusCode::kResourceExhausted) {
    // The optimistic plan-time footprint was wrong: extraction hit the
    // budget. Nothing was emitted yet, so clear and rerun on the paged
    // Grace path.
    TEMPO_RETURN_IF_ERROR(out->Clear());
    planned.Set(Metric::kRadixFallback, 1.0);
    stats = RunExecutor(JoinExecutor::kPartition, req, out, ctx, &planned);
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
  if (req.executor == JoinExecutor::kAuto) return RunPlanned(req, out, ctx);
  return RunExecutor(req.executor, req, out, ctx);
}

}  // namespace tempo
