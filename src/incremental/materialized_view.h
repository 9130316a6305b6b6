#ifndef TEMPO_INCREMENTAL_MATERIALIZED_VIEW_H_
#define TEMPO_INCREMENTAL_MATERIALIZED_VIEW_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/partition_join.h"
#include "core/partition_spec.h"
#include "join/join_common.h"
#include "storage/stored_relation.h"

namespace tempo {

/// A materialized valid-time natural join view with partition-local
/// incremental maintenance — the direction the paper closes with
/// (Section 5 / [SSJ93]; also Section 3.1: "suppose that r |X| s is
/// materialized as a view, and an update happens to r in partition r_i ...
/// the consistency of the view is insured by recomputing only r_i |X| s_i",
/// and footnote 1: the last-overlap placement was chosen "with
/// consideration for incremental adaptations").
///
/// Design. Build() plans a partitioning of valid time and stores, per
/// partition i:
///   - r_i, s_i        : tuples whose *last* overlap is p_i (base storage,
///                       exactly the join algorithm's layout), and
///   - rcache_i, scache_i : materialized copies of later-stored long-lived
///                       tuples overlapping p_i — the join algorithm's
///                       transient tuple cache made persistent, so each
///                       partition is self-contained for maintenance;
///   - result_i        : the partition-local join result, emitting a pair
///                       only where its overlap *ends* (the exactly-once
///                       rule), so result = U_i result_i with no overlap.
///
/// An insert touches only the partitions the new tuple overlaps: the tuple
/// is appended to its last-overlap partition and to the earlier caches,
/// and is delta-joined against the opposite side of those partitions. A
/// delete recomputes result_i for exactly the overlapped partitions
/// (partition-local recomputation, per the paper). Nothing outside
/// [firstOverlap, lastOverlap] is read or written.
///
/// The persistent caches trade secondary storage for update locality —
/// the paper's Section 5 tradeoff discussion — and the ablation bench
/// incremental-vs-recompute quantifies the win.
class MaterializedVtJoinView {
 public:
  /// I/O performed by one maintenance operation.
  struct UpdateStats {
    IoStats io;
    uint64_t partitions_touched = 0;
    uint64_t result_delta = 0;  ///< tuples added (insert) or rebuilt (delete)
  };

  /// The view's partition, cache and result files live on `disk` and are
  /// deleted with the view.
  MaterializedVtJoinView(Disk* disk, std::string name);

  MaterializedVtJoinView(const MaterializedVtJoinView&) = delete;
  MaterializedVtJoinView& operator=(const MaterializedVtJoinView&) = delete;

  /// Builds the view from base relations (copies their contents into the
  /// view's partitioned storage). `buffer_pages` drives the partitioning
  /// plan exactly as in PartitionVtJoin. With a non-null `ctx`, the build
  /// is traced as a kViewBuild span (sampling children included).
  Status Build(StoredRelation* r, StoredRelation* s, uint32_t buffer_pages,
               uint64_t seed = 42, ExecContext* ctx = nullptr);

  /// Inserts a tuple into the r (outer) side and maintains the view.
  /// With a non-null `ctx`, maintenance is traced as a kViewInsert span.
  StatusOr<UpdateStats> InsertR(const Tuple& t, ExecContext* ctx = nullptr);
  /// Inserts a tuple into the s (inner) side and maintains the view.
  StatusOr<UpdateStats> InsertS(const Tuple& t, ExecContext* ctx = nullptr);

  /// Deletes one tuple equal to `t` (attributes and timestamp) from the
  /// given side, recomputing the overlapped partitions' results.
  /// NotFound if no such tuple exists. With a non-null `ctx`, maintenance
  /// is traced as a kViewDelete span.
  StatusOr<UpdateStats> DeleteR(const Tuple& t, ExecContext* ctx = nullptr);
  StatusOr<UpdateStats> DeleteS(const Tuple& t, ExecContext* ctx = nullptr);

  /// The current view contents (concatenation of partition results).
  StatusOr<std::vector<Tuple>> ReadResult();

  const PartitionSpec& spec() const { return spec_; }
  const Schema& output_schema() const { return layout_.output; }
  size_t num_partitions() const { return spec_.num_partitions(); }
  uint64_t result_tuples() const { return result_tuples_; }

 private:
  struct Side {
    Schema schema;
    std::vector<size_t>* keys;  // into layout_
    std::vector<TempRelation> parts;
    std::vector<TempRelation> caches;
  };

  /// The one update path behind InsertR/InsertS/DeleteR/DeleteS: binds
  /// the disk's accountant to an unbound `ctx`, opens the view insert or
  /// delete span labelled with the side, and returns the update's I/O.
  StatusOr<UpdateStats> Update(bool insert, bool side_is_r, const Tuple& t,
                               ExecContext* ctx);
  Status InsertInto(Side& side, Side& other, bool side_is_r, const Tuple& t,
                    UpdateStats* stats);
  Status DeleteFrom(Side& side, const Tuple& t, UpdateStats* stats);

  /// Recomputes result_[i] from the stored partitions and caches.
  Status RecomputePartitionResult(size_t i);

  /// Removes one tuple equal to `t` from a relation by rewriting it.
  /// Returns false if absent.
  StatusOr<bool> RemoveTuple(StoredRelation* rel, const Tuple& t);

  Disk* disk_;
  std::string name_;
  bool built_ = false;
  NaturalJoinLayout layout_;
  PartitionSpec spec_;
  Side r_side_;
  Side s_side_;
  std::vector<TempRelation> results_;
  uint64_t result_tuples_ = 0;
};

}  // namespace tempo

#endif  // TEMPO_INCREMENTAL_MATERIALIZED_VIEW_H_
