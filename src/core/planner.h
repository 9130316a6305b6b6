#ifndef TEMPO_CORE_PLANNER_H_
#define TEMPO_CORE_PLANNER_H_

#include <string>

#include "join/join_common.h"

namespace tempo {

/// The evaluation strategies for the valid-time natural join. Enumerator
/// order is the kPlannedAlgorithm metric encoding (0 = NL, 1 = SM, 2 = PJ,
/// 3 = radix, 4 = sweep); append only.
enum class JoinAlgorithm {
  kNestedLoop,
  kSortMerge,
  kPartition,
  kInMemoryRadix,
  kSweep,
};

const char* JoinAlgorithmName(JoinAlgorithm a);

/// One algorithm's planner estimate.
struct JoinEstimate {
  JoinAlgorithm algorithm;
  double estimated_cost = 0.0;
  std::string rationale;
};

/// The planner's decision: the chosen algorithm plus every candidate's
/// estimate (sorted best-first) for EXPLAIN-style introspection.
struct JoinPlan {
  JoinAlgorithm algorithm;
  std::vector<JoinEstimate> candidates;
};

/// Analytic I/O cost estimates, catalog-only (no data access):
///
///  - nested-loops: the paper's exact closed form
///    (NestedLoopAnalyticCost);
///  - sort-merge: run formation + merge passes + co-scan, assuming no
///    back-up (optimistic for long-lived-heavy data — the planner cannot
///    see interval distributions without sampling, which is exactly the
///    partition join's own planning trick);
///  - partition join: one sampling scan bound + Grace write/read of both
///    inputs + inner scan (cache traffic unknown, omitted; also
///    optimistic, to the same degree).
///
/// The estimates are deliberately cheap and coarse; tests pin their
/// regime behaviour (nested-loops wins when an input fits in memory,
/// partition join wins in the paper's big-inputs/modest-memory regime).
double EstimateNestedLoopCost(uint32_t pages_r, uint32_t pages_s,
                              uint32_t buffer_pages, const CostModel& model);
double EstimateSortMergeCost(uint32_t pages_r, uint32_t pages_s,
                             uint32_t buffer_pages, const CostModel& model);
double EstimatePartitionJoinCost(uint32_t pages_r, uint32_t pages_s,
                                 uint32_t buffer_pages,
                                 const CostModel& model);

/// I/O cost of the in-memory radix path when it is eligible: one
/// sequential pass over each input (all other work is CPU/cache traffic,
/// which the I/O cost model does not price — the point of the fast path).
/// Eligibility is a memory question, not a cost one: PlanVtJoin only
/// offers this candidate when EstimateRadixFootprintBytes fits the
/// resolved budget (see core/radix_join.h).
double EstimateRadixJoinCost(uint32_t pages_r, uint32_t pages_s,
                             const CostModel& model);

/// I/O cost of the endpoint-sweep executor: sort both inputs plus one
/// co-scan — identical to the sort-merge formula (the sweep's active maps
/// are in-memory state the I/O model does not price). It is listed after
/// sort-merge, so at equal estimated I/O the default overlap predicate
/// keeps the established pick; the sweep wins outright whenever the
/// predicate rules the other executors out.
double EstimateSweepJoinCost(uint32_t pages_r, uint32_t pages_s,
                             uint32_t buffer_pages, const CostModel& model);

/// Ranks the algorithms for r |X|_v s under `options` and returns the
/// full ranking (the in-memory radix path included; when its estimated
/// footprint exceeds the memory budget it is ranked last at infinite cost
/// with the footprint-vs-budget rationale). The ranking is predicate-
/// aware: predicates whose relations all imply a shared chronon admit
/// every executor; adjacency predicates (meets/met-by) rank every
/// non-sweep executor ineligible at infinite cost; predicates containing
/// before/after are not plannable at all (RunJoin rejects them — only
/// the reference oracle evaluates those). RunJoin's kAuto branch runs
/// the chosen algorithm.
JoinPlan PlanVtJoin(StoredRelation* r, StoredRelation* s,
                    const ExecOptions& options);

}  // namespace tempo

#endif  // TEMPO_CORE_PLANNER_H_
