#ifndef TEMPO_CORE_GRACE_PARTITIONER_H_
#define TEMPO_CORE_GRACE_PARTITIONER_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/partition_spec.h"
#include "storage/stored_relation.h"

namespace tempo {

/// How a tuple overlapping several partitioning intervals is placed.
enum class PlacementPolicy {
  /// The paper's strategy (Section 3.3): store the tuple only in the
  /// *last* partition it overlaps; the join migrates it backwards through
  /// the tuple cache. No secondary-storage redundancy.
  kLastOverlap,
  /// The Leung-Muntz strategy the paper argues against [LM92b]: replicate
  /// the tuple into every partition it overlaps. Costs extra storage and
  /// write I/O but needs no migration. Kept as the ablation comparator.
  kReplicate,
};

/// A relation split into per-partition heap files, aligned with a
/// PartitionSpec. The partition files are deleted with it.
struct PartitionedRelation {
  std::vector<TempRelation> parts;
  /// Tuples written across all partitions (> input cardinality only under
  /// kReplicate — the replication overhead the paper avoids).
  uint64_t tuples_written = 0;

  /// Pages across all partition files.
  uint32_t TotalPages() const {
    uint32_t total = 0;
    for (const auto& p : parts) total += p->num_pages();
    return total;
  }

  /// Deletes the partition files from disk before this is destroyed.
  void Drop() { parts.clear(); }

  /// The partition files, in partition order.
  std::vector<StoredRelation*> Files() const {
    std::vector<StoredRelation*> files;
    for (const auto& p : parts) files.push_back(p.get());
    return files;
  }
};

/// Grace partitioning (Section 3.2, [KTMo83]): scans `input` once through
/// a single input page, routing each tuple to its partition's output
/// buffer; buffers flush to the partition files as their pages fill.
/// Requires one output buffer page per partition within `buffer_pages`
/// ("We assume that the number of partitions is small, and therefore, that
/// sufficient main memory is available to perform the partitioning").
///
/// Runs on the calling thread, as the paper costs it: one input page and one output page per partition, so
/// `buffer_pages` bounds its memory and its charged I/O is the serial
/// sequence under either head model (DESIGN §4c). A failed call leaves no
/// partition file behind.
StatusOr<PartitionedRelation> GracePartition(StoredRelation* input,
                                             const PartitionSpec& spec,
                                             uint32_t buffer_pages,
                                             PlacementPolicy policy,
                                             const std::string& name_prefix);

}  // namespace tempo

#endif  // TEMPO_CORE_GRACE_PARTITIONER_H_
