#include "join/join_executor.h"

#include <string>

namespace tempo {

namespace {

/// The smallest buffSize each paged executor runs with; executors not
/// listed have no minimum.
struct MinBufferPages {
  JoinExecutor executor;
  uint32_t pages;
};
constexpr MinBufferPages kMinBufferPages[] = {
    {JoinExecutor::kNestedLoop, 3}, {JoinExecutor::kSortMerge, 4},
    {JoinExecutor::kIndexed, 8},    {JoinExecutor::kPartition, 4},
    {JoinExecutor::kSweep, 4},
};

Status Unsupported(JoinExecutor executor, const ExecOptions& options,
                   const char* why) {
  return Status::InvalidArgument(
      std::string("executor ") + JoinExecutorName(executor) +
      " cannot evaluate join kind " + JoinKindName(options.join_kind) +
      " under predicate '" + options.predicate.Name() + "': " + why);
}

}  // namespace

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
  for (const MinBufferPages& min : kMinBufferPages) {
    if (min.executor == executor && options.buffer_pages < min.pages) {
      return Status::InvalidArgument(
          std::string(JoinExecutorName(executor)) + " join needs at least " +
          std::to_string(min.pages) + " buffer pages");
    }
  }
  const TemporalPredicate& pred = options.predicate;
  if (options.join_kind != JoinKind::kInner) {
    if (executor != JoinExecutor::kAuto &&
        executor != JoinExecutor::kPartition &&
        executor != JoinExecutor::kReference) {
      return Unsupported(
          executor, options,
          "sequenced outer/anti joins run on the partition executor (or "
          "auto, which routes there) or the reference oracle");
    }
    if (!pred.IsOverlapDefault()) {
      return Unsupported(executor, options,
                         "sequenced outer/anti semantics are defined over "
                         "the default overlap predicate only");
    }
    return Status::OK();
  }
  if (pred.ImpliesSharedChronon()) return Status::OK();
  if (!pred.HasDisjointNonAdjacent()) {
    if (executor == JoinExecutor::kAuto || executor == JoinExecutor::kSweep ||
        executor == JoinExecutor::kReference) {
      return Status::OK();
    }
    return Unsupported(executor, options,
                       "adjacency relations (meets/met-by) need the sweep "
                       "executor, auto planning, or the reference oracle");
  }
  if (executor == JoinExecutor::kReference) return Status::OK();
  return Unsupported(executor, options,
                     "before/after match unboundedly separated tuples, "
                     "which only the reference oracle evaluates");
}

StatusOr<JoinRunStats> RunJoinContract(JoinExecutor executor,
                                       StoredRelation* r, StoredRelation* s,
                                       StoredRelation* out,
                                       const ExecOptions& options,
                                       ExecContext* ctx,
                                       const ExecutorBody& body) {
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         PrepareJoinForKind(r, s, out, options.join_kind));
  TEMPO_RETURN_IF_ERROR(ValidateExecOptions(executor, options));
  IoAccountant& acct = r->disk()->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  const IoStats before = acct.stats();
  TEMPO_ASSIGN_OR_RETURN(JoinRunStats stats, body(layout));
  stats.io = acct.stats() - before;
  if (!options.predicate.IsOverlapDefault()) {
    stats.Set(Metric::kJoinPredicateMask,
              static_cast<double>(options.predicate.mask()));
  }
  ExportMetrics(stats, ctx);
  return stats;
}

}  // namespace tempo
