#ifndef TEMPO_CORE_PLANNER_H_
#define TEMPO_CORE_PLANNER_H_

#include <string>

#include "core/determine_part_intervals.h"
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

/// Analytic I/O cost estimates of the catalog stage (no data access):
///
///  - nested-loops: the paper's exact closed form
///    (NestedLoopAnalyticCost);
///  - sort-merge: run formation + merge passes + co-scan, without
///    back-ups (the catalog cannot see interval distributions);
///  - partition join: one sampling scan bound + Grace write/read of both
///    inputs, without tuple-cache traffic or overflow chunks.
///
/// Both sort-merge and partition are lower bounds that the sampled stage
/// (RepriceFromSample) completes when partition wins here. Tests pin the
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

/// The catalog stage: ranks the algorithms for r |X|_v s under `options`
/// from page counts alone and returns the full ranking (the in-memory
/// radix path included; when its estimated footprint exceeds the memory
/// budget it is ranked last at infinite cost with the footprint-vs-budget
/// rationale). The ranking is predicate-aware: predicates whose relations
/// all imply a shared chronon admit every executor; adjacency predicates
/// (meets/met-by) rank every non-sweep executor ineligible at infinite
/// cost; predicates containing before/after are not plannable at all
/// (RunJoin rejects them — only the reference oracle evaluates those).
///
/// RunJoin's kAuto branch runs this first. When it picks partition (which
/// implies radix is ineligible: radix is listed first and never costs
/// more), RunJoin draws the partition executor's own sample and re-ranks
/// with RepriceFromSample.
JoinPlan PlanVtJoin(StoredRelation* r, StoredRelation* s,
                    const ExecOptions& options);

/// Pages sort-merge is expected to re-read (back-ups, paper Section 4.3,
/// the Figure 7 effect), from validity intervals sampled from r, in draw
/// order, and representative of both inputs. The retention policy of the
/// merge window (buffSize less one result page and the two stream
/// buffers; evict the latest-ending tuple first) is replayed over the
/// first 4,096 samples in sweep order, each standing for
/// (|r| + |s|) / |replayed samples| tuples. The sorted files are then cut
/// into runs of 32 consecutive samples (at most one run per page of r); a
/// run whose evicted fraction is e puts each of its pages on the back-up
/// list with probability 1 - (1 - e)^tuples_per_page. Each listed page is
/// re-read once, whether or not a later arrival matches its evicted
/// tuples, so this is an upper bound in key-sparse data.
double EstimateBackupPages(const std::vector<Interval>& samples,
                           uint64_t tuples_r, uint64_t tuples_s,
                           uint32_t pages_r, uint32_t pages_s,
                           uint32_t buffer_pages);

/// The sampled stage: re-prices `catalog` from `sampled`, the partition
/// optimizer's plan for r drawn with the partition executor's own RNG,
/// and returns the re-ranked plan. `sample_cost` is what drawing that
/// sample charged; it is already paid, so every finite candidate carries
/// it and the ranking is over the remaining cost. A plan that drew no
/// sample (r fits the partition area) returns `catalog` unchanged.
///
///  - partition: Grace (both input scans plus write+read of s's
///    partitions, the half C_join omits) + C_join + the overflow chunks
///    (PartitionPlan::est_overflow_cost). A sample that collapsed to one
///    partition is priced as the executor runs it: one pass over each
///    input plus the overflow chunks, with no Grace pass and no C_join;
///  - sort-merge: the catalog estimate plus EstimateBackupPages back-ups,
///    each a random read that also makes its stream's next refill seek;
///  - sweep: priced as sort-merge, back-ups included. Its active set is
///    not bounded by buffSize, so it is credited with no back-ups only
///    when that set fits the merge window, and then sort-merge backs up
///    no page either. The tie keeps sort-merge, listed first;
///  - nested-loops keeps its exact catalog price; radix, ineligible when
///    partition wins the catalog stage, stays infinite.
JoinPlan RepriceFromSample(const JoinPlan& catalog, StoredRelation* r,
                           StoredRelation* s, const ExecOptions& options,
                           const PartitionPlan& sampled, double sample_cost);

}  // namespace tempo

#endif  // TEMPO_CORE_PLANNER_H_
