#ifndef TEMPO_SERVICE_JOIN_REQUEST_H_
#define TEMPO_SERVICE_JOIN_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "join/join_executor.h"
#include "storage/stored_relation.h"

namespace tempo {

/// One valid-time natural join, described declaratively: which relations,
/// which executor, and the budget knobs — the single entry point that
/// replaced six per-executor free functions. Build with the chainable
/// setters and hand to RunJoin (or Session::Submit for the concurrent
/// service):
///
///   JoinRequest req;
///   req.From(&r, &s).Using(JoinExecutor::kPartition).BufferPages(32);
///   TEMPO_ASSIGN_OR_RETURN(JoinRunStats stats, RunJoin(req, &out, &ctx));
struct JoinRequest {
  StoredRelation* r = nullptr;
  StoredRelation* s = nullptr;
  JoinExecutor executor = JoinExecutor::kAuto;

  /// Shared budget knobs (buffer_pages is the paper's buffSize — also the
  /// page reservation the service's admission control charges).
  ExecOptions options;

  /// When non-empty, RunJoin validates that the natural join's shared
  /// attributes are exactly these names (order-insensitive) and fails
  /// with InvalidArgument otherwise — a schema-drift guard for requests
  /// built from catalog names rather than literal relations.
  std::vector<std::string> expected_join_attrs;

  JoinRequest& From(StoredRelation* r_in, StoredRelation* s_in) {
    r = r_in;
    s = s_in;
    return *this;
  }
  JoinRequest& Using(JoinExecutor e) {
    executor = e;
    return *this;
  }
  JoinRequest& On(std::vector<std::string> attrs) {
    expected_join_attrs = std::move(attrs);
    return *this;
  }
  JoinRequest& BufferPages(uint32_t pages) {
    options.buffer_pages = pages;
    return *this;
  }
  JoinRequest& Model(const CostModel& model) {
    options.cost_model = model;
    return *this;
  }
  JoinRequest& Seed(uint64_t seed) {
    options.seed = seed;
    return *this;
  }
  JoinRequest& RadixBudgetBytes(uint64_t bytes) {
    options.radix_budget_bytes = bytes;
    return *this;
  }
  /// Selects the sequenced join variant. Non-inner kinds run on the
  /// partition executor (kAuto routes there) or the reference oracle;
  /// naming any other executor is InvalidArgument (see
  /// ValidateExecOptions). An executor run and an oracle run of the same
  /// request write the same result multiset, each in its own order.
  JoinRequest& Kind(JoinKind kind) {
    options.join_kind = kind;
    return *this;
  }
  /// Selects the temporal predicate the join evaluates (default: the
  /// overlap disjunction). Which executors accept which predicates is
  /// ValidateExecOptions's contract; kAuto plans within the eligible set.
  JoinRequest& Predicate(TemporalPredicate predicate) {
    options.predicate = predicate;
    return *this;
  }
  /// Convenience overload: require exactly one Allen relation, e.g.
  /// `req.Predicate(AllenRelation::kMeets)`.
  JoinRequest& Predicate(AllenRelation relation) {
    options.predicate = TemporalPredicate::Exactly(relation);
    return *this;
  }
};

/// Executes `req` into `out` after validating the request: relations
/// present, out distinct from the inputs, and — when expected_join_attrs
/// is set — the derived shared attributes match. RunJoin is the single
/// point that picks and runs an executor: a named executor runs as is;
/// kAuto plans in two stages and runs the chosen algorithm, forcing the
/// partition executor for non-inner kinds and falling back from radix to
/// partition when extraction exceeds the radix budget. The catalog stage
/// is PlanVtJoin; when it picks partition, the sampled stage draws the
/// partition executor's own sample, re-ranks with RepriceFromSample, and
/// hands the partitioning to the executor if partition still wins
/// (core/planner.h). Every executor run goes through RunJoinContract
/// (join/join_executor.h), which validates, measures the charged IoStats
/// and exports the metrics once. A planned run additionally reports
/// kPlannedAlgorithm (JoinAlgorithm's encoding), kPlannedCost and
/// kRadixFallback, opens a kPlan span (holding the sample's spans), and
/// annotates the planner's estimate onto the chosen executor's root span.
/// The sample's charged I/O is part of the returned IoStats.
///
/// Every phase runs on the calling thread, and all charged I/O lands on
/// the accountant `Disk::accountant()` resolves for that thread — so
/// the same request run through the concurrent service produces the same
/// output pages and the same charged IoStats as a standalone call.
StatusOr<JoinRunStats> RunJoin(const JoinRequest& req, StoredRelation* out,
                               ExecContext* ctx = nullptr);

}  // namespace tempo

#endif  // TEMPO_SERVICE_JOIN_REQUEST_H_
