#ifndef TEMPO_CORE_DETERMINE_PART_INTERVALS_H_
#define TEMPO_CORE_DETERMINE_PART_INTERVALS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "core/partition_spec.h"
#include "obs/exec_context.h"
#include "storage/io_accountant.h"
#include "storage/stored_relation.h"

namespace tempo {

/// Options for the partition-interval optimizer.
struct PartitionPlanOptions {
  /// Total main-memory budget in pages. The outer-partition area gets
  /// buffer_pages - 3 of them (Figure 3 reserves one page each for the
  /// inner relation, the tuple cache, and the result).
  uint32_t buffer_pages = 2048;

  CostModel cost_model = CostModel::Ratio(5.0);

  /// Section 4.2 optimization: when the Kolmogorov bound asks for more
  /// random samples than a sequential scan costs, scan instead. Disabling
  /// this reproduces the paper's "initial assumption" (one random access
  /// per sample) for the sampling ablation.
  bool in_scan_sampling = true;

  /// If nonzero, skip cost optimization and build a spec with exactly this
  /// many (sample-equi-depth) partitions.
  uint32_t forced_num_partitions = 0;
};

/// The optimizer's output: the partitioning plus the estimates that chose
/// it.
struct PartitionPlan {
  PartitionSpec spec;
  uint32_t part_size_pages = 0;  ///< estimated pages per outer partition
  uint32_t num_partitions = 1;
  uint64_t samples_drawn = 0;
  bool sampled_by_scan = false;
  double est_sample_cost = 0.0;       ///< C_sample of the chosen plan
  double est_join_cost = 0.0;         ///< C_join of the chosen plan
  /// Re-reads of the estimated overflow chunks (Section 3.4), and their
  /// count; not part of est_join_cost (see DeterminePartIntervals).
  double est_overflow_cost = 0.0;
  uint64_t est_overflow_chunks = 0;
  /// Estimated tuple-cache pages per partition (EstimateCacheSizes).
  std::vector<uint64_t> est_cache_pages;
  /// The sampled validity intervals of the outer relation, in draw order
  /// (a uniformly random order); the planner prices sort-merge's back-ups
  /// from them.
  std::vector<Interval> samples;
};

/// Algorithm determinePartIntervals (Appendix A.2): examines candidate
/// partition sizes, drawing Kolmogorov-sized sample sets incrementally
/// (each sample is a charged random page read — or free once in-scan mode
/// has paid for one sequential scan), estimates
///     C_sample(partSize) + C_join(partSize)
/// for each, and returns the partitioning intervals of the minimum.
///
/// C_join follows the paper:
///   2 * (numPartitions * w_ran + (partSize-1) * numPartitions * w_seq)
///   + sum over partitions with cache m > 0 of 2 * (w_ran + (m-1) * w_seq)
/// i.e. write+read of the outer partitions plus write+read of the tuple
/// caches. (Grace partitioning's input-scan cost is the same for every
/// candidate and is omitted, as in the paper.)
///
/// The chosen plan also carries the cost of its overflow chunks
/// (Section 3.4), which the argmin leaves out: partition i's area holds
/// r_i plus the retained outer tuples that overlap p_i from later
/// partitions (estimated like its cache, m_i pages), and every chunk of
/// buffSize - 3 pages beyond the first re-reads s_i (~ r_i by the
/// similarity assumption) and the cache. Minimising with that term moves
/// the Figure 7 choices toward more, smaller partitions whose tuple cache
/// costs more than the overflow saved, so only the planner adds it, when
/// it compares the partition join with the other executors.
///
/// Implementation refinements over the pseudocode, documented in DESIGN.md:
/// only partition sizes that change ceil(pages/partSize) are examined (the
/// cost is constant between them), partition counts are capped so Grace
/// partitioning keeps >= 1 output buffer page per partition, and the final
/// spec is rebuilt from the full sample set.
///
/// A relation that fits in the partition area yields the trivial
/// single-partition plan with no sampling.
///
/// With a non-null `ctx`, the sampling I/O (random draws or the
/// break-even sequential scan) is traced as kSampling spans, nested under
/// whatever span the caller holds open (PartitionVtJoin wraps this call
/// in kChooseIntervals).
StatusOr<PartitionPlan> DeterminePartIntervals(StoredRelation* r,
                                               const PartitionPlanOptions& options,
                                               Random* rng,
                                               ExecContext* ctx = nullptr);

/// One point of the Figure-4 cost curve: the optimizer's view of a
/// candidate partition size.
struct PartitionCostPoint {
  uint32_t part_size_pages = 0;
  uint32_t num_partitions = 0;
  uint64_t required_samples = 0;
  double c_sample = 0.0;     ///< sampling cost (rises with partSize)
  double c_cache = 0.0;      ///< tuple-cache paging component of C_join
  double c_partition = 0.0;  ///< outer partition write+read component
  double total() const { return c_sample + c_cache + c_partition; }
};

/// Evaluates the optimizer's cost model at every candidate partition size
/// and returns the full curve — the data behind the paper's Figure 4
/// ("I/O Cost for Partition Size"): C_sample increases monotonically with
/// partSize while tuple-cache paging decreases, and the optimizer picks
/// the minimum of the sum. Performs the same (charged) sampling the
/// optimizer would.
StatusOr<std::vector<PartitionCostPoint>> PartitionCostCurve(
    StoredRelation* r, const PartitionPlanOptions& options, Random* rng);

}  // namespace tempo

#endif  // TEMPO_CORE_DETERMINE_PART_INTERVALS_H_
