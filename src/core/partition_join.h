#ifndef TEMPO_CORE_PARTITION_JOIN_H_
#define TEMPO_CORE_PARTITION_JOIN_H_

#include "core/determine_part_intervals.h"
#include "core/grace_partitioner.h"
#include "join/join_common.h"
#include "temporal/temporal_predicate.h"

namespace tempo {

/// Options for the partition-based valid-time natural join: the shared
/// ExecOptions (buffer_pages is Figure 3's buffSize — pages of outer
/// partition area plus one page each for the inner buffer, tuple cache
/// and result) plus the three knobs only this executor has. RunJoin runs
/// the partition executor with the defaults; callers that set a knob call
/// PartitionVtJoin directly.
///
/// The partition machinery serves any predicate whose relations all imply
/// a shared chronon — matching pairs necessarily meet in the partition
/// holding their overlap's end (Section 4.1); ValidateExecOptions rejects
/// the rest.
struct PartitionJoinOptions : ExecOptions {
  /// Fixes the number of partitions instead of optimizing it (see
  /// PartitionPlanOptions). PartitionCoalesce and tests use it.
  uint32_t forced_num_partitions = 0;

  /// kLastOverlap is the paper's algorithm; kReplicate is the
  /// Leung-Muntz ablation baseline (bench/ablation_replication).
  PlacementPolicy placement = PlacementPolicy::kLastOverlap;

  /// In-memory pages reserved for the tuple cache (Figure 3 reserves one).
  /// Raising this trades outer-partition area for cache space, the
  /// Section 5 future-work knob (see bench/ablation_cache_reserve).
  uint32_t tuple_cache_memory_pages = 1;
};

/// Mutable state of one sequenced outer/anti pass, shared between the
/// partition executor and JoinPartitions (null = plain inner join). The pass
/// accumulates, per outer-area tuple, the union of its overlap intervals
/// with key-matching partners (an IntervalSet); when a tuple retires from
/// the area its uncovered subintervals are emitted through `writer`. The
/// dedup rule already guarantees each (x, y) overlap is observed in
/// exactly one partition, and IntervalSet union is order-independent, so
/// coverage — and hence the emitted unmatched rows — matches the oracle's,
/// at any number of concurrent queries.
struct JoinVariant {
  JoinKind kind = JoinKind::kInner;
  /// When false, matched pairs feed coverage only and are not emitted
  /// (the anti join, and the swapped second pass of the full outer).
  bool emit_matches = true;
  /// Orientation of unmatched emission: true when the build side of this
  /// pass is the original r.
  bool preserved_is_r = true;
  /// Layout of the ORIGINAL (r, s) pair, used to assemble NULL-padded
  /// unmatched rows. The swapped full-outer pass runs the probe machinery
  /// under the (s, r) layout but emits unmatched rows under this one.
  const NaturalJoinLayout* emit_layout = nullptr;
  /// Writer shared by match and unmatched emission (and, for the full
  /// outer, by both passes). The caller finishes it.
  ResultWriter* writer = nullptr;

  /// Preserved-side tuples that retired with a non-empty uncovered set.
  uint64_t unmatched_tuples = 0;
  /// Total uncovered subinterval rows emitted.
  uint64_t uncovered_subintervals = 0;
};

/// Joins two already-partitioned relations (algorithm joinPartitions,
/// Appendix A.1), processing partitions from p_n down to p_1:
///
///   for i = n .. 1:
///     purge outer-area tuples not overlapping p_i; read partition r_i
///     join the outer area with the in-memory cache page, then with each
///       spilled tuple-cache page, then with each page of s_i;
///     inner tuples overlapping p_{i-1} are retained into the next cache
///       generation (spilling page-by-page);
///     outer tuples overlapping p_{i-1} stay in the outer area.
///
/// Every result pair is emitted exactly once: a pair is produced only in
/// the partition containing the *end* of its overlap interval — both
/// tuples are guaranteed present there, and in no earlier-processed
/// partition is the rule satisfied. (The paper does not spell out its
/// de-duplication rule; DESIGN.md discusses this choice.)
///
/// If an outer partition exceeds the partition area (a sampling-error
/// overflow — "the correctness of the join algorithm is not affected —
/// only performance will suffer", Section 3.4), the partition is processed
/// in area-sized chunks, re-reading s_i and the spilled cache for each
/// extra chunk: that re-reading is precisely the thrashing cost.
///
/// The partition executor runs the same loop, over r and s themselves
/// for a plan of one partition.
///
/// Metrics in JoinRunStats: kCachePagesSpilled, kCacheTuples,
/// kOverflowChunks. The metrics are returned, not exported into `ctx`: the
/// executor run that calls this exports once (RunJoinContract).
///
/// The run is serial on the calling thread: generation i's tuple cache
/// feeds generation i-1, and each partition's probe runs inline with its
/// page reads, in the paper's order.
StatusOr<JoinRunStats> JoinPartitions(const NaturalJoinLayout& layout,
                                      const PartitionSpec& spec,
                                      PartitionedRelation* pr,
                                      PartitionedRelation* ps,
                                      StoredRelation* out,
                                      uint32_t buffer_pages,
                                      PlacementPolicy placement,
                                      TemporalPredicate predicate =
                                          TemporalPredicate::Overlap(),
                                      uint32_t cache_memory_pages = 1,
                                      ExecContext* ctx = nullptr,
                                      JoinVariant* variant = nullptr);

/// Phase 1 of the partition executor: determinePartIntervals over r under
/// `options` (buffSize, cost model, forced partition count), drawing its
/// samples with the executor's own RNG, seeded from options.seed. The
/// planner's sampled stage calls it too and hands the plan to the
/// executor, so one query draws one sample, and the charged I/O and the
/// intervals are those of an explicit partition run. PartitionCoalesce
/// and MaterializedVtJoinView::Build draw their plans with it as well.
StatusOr<PartitionPlan> PlanPartitions(StoredRelation* r,
                                       const PartitionJoinOptions& options,
                                       ExecContext* ctx = nullptr);

/// The paper's contribution, end to end (Figure 2):
///
///   partInterals  <- determinePartIntervals(buffSize, |r|, |s|)
///   r_parts       <- doPartitioning(r, partIntervals)
///   s_parts       <- doPartitioning(s, partIntervals)
///   return joinPartitions(r_parts, s_parts, partIntervals)
///
/// A plan of one partition (r fits the partition area, or its sample
/// collapses to one partition) skips Grace partitioning: joinPartitions
/// runs over r and s themselves and, once r exceeds the area, probes it
/// in area-sized chunks, re-reading s for each further chunk, as it does
/// for any overflowing partition. All sampling, partitioning and join I/O
/// is charged to the disk's accountant and reported in the returned
/// stats. Non-inner kinds (options.join_kind) run the sequenced
/// outer/anti variants, which require last-overlap placement.
///
/// This is JoinRequest's kPartition executor with its knobs exposed: it
/// runs under the same contract as every RunJoin executor run
/// (RunJoinContract — input and option validation, charged IoStats,
/// kJoinPredicateMask, one metrics export into `ctx`).
///
/// Metrics (in addition to JoinPartitions'): kPartitions, kPartSizePages,
/// kSamples, kSampledByScan, kEstSampleCost, kEstJoinCost,
/// kPartitionPagesWritten, kTuplesWritten.
///
/// With a non-null `ctx`, execution is traced as a span tree
/// (chooseIntervals with nested sampling, partitioning r, partitioning s,
/// joinPartitions; a plan of one partition has no partitioning spans);
/// with a null `ctx`, charged I/O and output bytes are bit-identical to a
/// run without observability.
StatusOr<JoinRunStats> PartitionVtJoin(StoredRelation* r, StoredRelation* s,
                                       StoredRelation* out,
                                       const PartitionJoinOptions& options,
                                       ExecContext* ctx = nullptr);

}  // namespace tempo

#endif  // TEMPO_CORE_PARTITION_JOIN_H_
