#ifndef TEMPO_CORE_PARTITION_COALESCE_H_
#define TEMPO_CORE_PARTITION_COALESCE_H_

#include "core/partition_join.h"

namespace tempo {

/// Disk-based coalescing via the paper's partition framework — a
/// demonstration that the valid-time partitioning machinery generalizes
/// beyond joins (the paper: "the techniques presented are also applicable
/// to other valid-time joins"; coalescing is the other staple operation
/// on valid-time relations [JSS92a]).
///
/// The input is Grace-partitioned by validity interval with last-overlap
/// placement and processed from the latest partition to the earliest,
/// exactly like joinPartitions; a plan of one partition folds the input
/// itself, without a Grace pass. Within a step, value-equivalent tuples
/// merge into maximal runs. A run is *emitted* once no tuple in an
/// earlier partition could extend it — every potential extender ends at
/// run.start-1 or later, so once run.start-1 lies inside the current
/// partition all extenders have already been processed. Runs starting at
/// the partition boundary are *carried* to the next (earlier) step, the
/// coalescer's analogue of the long-lived tuple migration.
///
/// The output is the coalesced relation (same schema); I/O is charged as
/// usual. Metrics: kPartitions, kCarriedRuns. With a non-null `ctx`, the
/// run is traced as a kCoalesce span with the usual chooseIntervals /
/// sampling children.
StatusOr<JoinRunStats> PartitionCoalesce(StoredRelation* in,
                                         StoredRelation* out,
                                         const PartitionJoinOptions& options,
                                         ExecContext* ctx = nullptr);

}  // namespace tempo

#endif  // TEMPO_CORE_PARTITION_COALESCE_H_
