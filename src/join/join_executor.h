#ifndef TEMPO_JOIN_JOIN_EXECUTOR_H_
#define TEMPO_JOIN_JOIN_EXECUTOR_H_

#include <functional>

#include "join/join_common.h"

namespace tempo {

/// The evaluation strategies a JoinRequest may name. kAuto defers to the
/// cost-based planner; the rest force one executor. kReference is the
/// in-memory oracle (O(|r|*|s|)), kept addressable for verification runs
/// and the only executor that evaluates predicates containing
/// before/after. kSweep is the endpoint-sorted sweep, the only planned
/// executor for adjacency predicates (meets/met-by).
enum class JoinExecutor {
  kAuto,
  kNestedLoop,
  kSortMerge,
  kIndexed,
  kPartition,
  kReference,
  kInMemoryRadix,
  kSweep,
};

const char* JoinExecutorName(JoinExecutor e);

/// The single gatekeeper for executor x buffSize x join-kind x predicate:
/// returns OK when the named executor can evaluate `options`, and
/// InvalidArgument naming the executor otherwise. The rules it encodes:
///
///  - each paged executor has a minimum buffSize, kept here as one table:
///    nested-loop 3, sort-merge 4, indexed 8, partition 4, sweep 4;
///  - non-inner kinds (outer/anti) run on the partition executor (kAuto
///    routes there) or the reference oracle, and only under the default
///    overlap predicate — the sequenced semantics are defined over
///    overlapping valid time;
///  - predicates whose relations all imply a shared chronon (subsets of
///    the overlap disjunction) are accepted by every executor;
///  - adjacency predicates (containing meets/met-by but not before/after)
///    need the sweep executor, the planner (which routes to it), or the
///    oracle;
///  - predicates containing before/after match unboundedly separated
///    tuples and are accepted by the reference oracle only.
///
/// Every executor run checks it through RunJoinContract, so no executor
/// body repeats these checks.
Status ValidateExecOptions(JoinExecutor executor, const ExecOptions& options);

/// An executor body: evaluates the join of (r, s) into `out` given the
/// already-derived natural-join layout, and returns output_tuples plus its
/// own typed counters. It neither validates, nor measures charged I/O,
/// nor exports metrics — RunJoinContract does all three.
using ExecutorBody =
    std::function<StatusOr<JoinRunStats>(const NaturalJoinLayout& layout)>;

/// The run contract of every executor run — RunJoin's named and planned
/// routes and the public PartitionVtJoin alike. In order, it
///   1. checks the inputs and derives the layout (PrepareJoinForKind);
///   2. validates the request for `executor` (ValidateExecOptions);
///   3. binds the disk's accountant on `ctx` when none is bound;
///   4. runs `body`, setting stats.io to the charged IoStats delta taken
///      around the body only;
///   5. sets kJoinPredicateMask when the predicate is not the default;
///   6. exports the run's metrics into `ctx` — the join path's one
///      ExportMetrics call.
StatusOr<JoinRunStats> RunJoinContract(JoinExecutor executor,
                                       StoredRelation* r, StoredRelation* s,
                                       StoredRelation* out,
                                       const ExecOptions& options,
                                       ExecContext* ctx,
                                       const ExecutorBody& body);

}  // namespace tempo

#endif  // TEMPO_JOIN_JOIN_EXECUTOR_H_
