#ifndef TEMPO_CORE_ESTIMATE_CACHE_H_
#define TEMPO_CORE_ESTIMATE_CACHE_H_

#include <cstdint>
#include <vector>

#include "core/partition_spec.h"
#include "temporal/interval.h"

namespace tempo {

/// Algorithm estimateCacheSizes (Appendix A.4): estimates, for each
/// partition, how many pages of the tuple cache the join step will write
/// and re-read.
///
/// A tuple stored in its last overlapping partition `max` is migrated into
/// every earlier partition it overlaps — it occupies the tuple cache of
/// partitions [min, max-1]. Each sample therefore increments the count of
/// those partitions; the counts are scaled by the inverse sampling
/// fraction (relation_tuples / |samples|) and converted to pages with the
/// relation's observed tuples-per-page density.
///
/// Per the paper's similarity assumption (Section 3.4), samples come from
/// the *outer* relation but estimate the *inner* relation's cache — a
/// single sample set serves both purposes. (Note: the pseudocode in the
/// paper prints the scaling factor as |samples|/|r|, which would scale the
/// counts *down*; the prose — "a scaling factor to account for the
/// percentage of the relation sampled" — requires |r|/|samples|, which is
/// what this implements.)
///
/// Returns one page count per partition (the count for the last partition
/// is always 0 — nothing is migrated past partition 1 since evaluation
/// proceeds from p_n down to p_1; index i of the result corresponds to the
/// cache written *while joining* partition i+1 and read while joining
/// partition i... in short: result[i] = estimated pages of tuples cached
/// *for* partition i).
std::vector<uint64_t> EstimateCacheSizes(const std::vector<Interval>& samples,
                                         uint64_t relation_tuples,
                                         double tuples_per_page,
                                         const PartitionSpec& spec);

/// The estimates EstimateCacheSizes rounds up to pages: per partition,
/// the relation's tuples that overlap it but are stored in a later one,
/// scaled by |relation| / |samples|.
std::vector<double> EstimateCachedTuples(const std::vector<Interval>& samples,
                                         uint64_t relation_tuples,
                                         const PartitionSpec& spec);

/// Per partition, the relation's tuples Grace partitioning stores in it
/// under last-overlap placement: each sample counts toward the partition
/// holding its end, scaled by |relation| / |samples|.
std::vector<double> EstimateStoredTuples(const std::vector<Interval>& samples,
                                         uint64_t relation_tuples,
                                         const PartitionSpec& spec);

}  // namespace tempo

#endif  // TEMPO_CORE_ESTIMATE_CACHE_H_
