#ifndef TEMPO_CORE_TUPLE_CACHE_H_
#define TEMPO_CORE_TUPLE_CACHE_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "relation/column_extract.h"
#include "relation/tuple_view.h"
#include "storage/stored_relation.h"

namespace tempo {

/// One generation of the long-lived tuple cache (Figure 3, Appendix A.1).
///
/// While partition i is being joined, inner tuples that also overlap
/// partition i-1 are retained into the *next* generation's cache: they
/// accumulate in a single in-memory page (the paper's newCachePage) and
/// spill to a disk file page-by-page as it fills. During step i-1 the
/// generation built at step i is consumed: its in-memory page is probed
/// directly and its spilled pages are read back (1 random + (k-1)
/// sequential under the per-file head model).
///
/// This is how the algorithm keeps every long-lived tuple available in
/// every partition it overlaps *without replicating it in the base
/// relation files* — the paper's central storage-saving device.
///
/// The in-memory area holds *serialized records* (copied into a
/// RecordArena, whose blocks never move) and hands out zero-copy
/// TupleViews over them: retaining a probe-side view copies only the raw
/// record bytes, and consuming the generation probes the views in place —
/// no Tuple is materialized on either side of the cache.
class TupleCache {
 public:
  /// Creates an empty generation holding up to `memory_pages` pages of
  /// tuples in memory before spilling (the paper's default is one page;
  /// Section 5 suggests trading outer-partition area for cache space to
  /// cut cache paging — the cache-reserve ablation exercises this).
  /// The spill file is created lazily on first overflow and deleted when
  /// the generation is destroyed or replaced by move-assignment.
  TupleCache(Disk* disk, const Schema& schema, std::string name,
             uint32_t memory_pages = 1);

  TupleCache(TupleCache&&) = default;
  TupleCache& operator=(TupleCache&&) = default;

  /// Retains an already-serialized record (e.g. TupleView::record()) into
  /// this generation; only the record bytes are copied. Spills the
  /// in-memory area to disk when the record does not fit it.
  Status AddRecord(std::string_view record);

  /// Views over the records still in the in-memory area (never spilled),
  /// in retention order. Valid until the cache spills or is destroyed;
  /// moving the cache preserves them.
  const std::vector<TupleView>& memory_views() const { return memory_views_; }

  /// Number of spilled pages on disk.
  uint32_t spilled_pages() const {
    return spill_ == nullptr ? 0 : spill_->num_pages();
  }

  /// Pins one spilled page (charged I/O); callers hold the pin in a
  /// PageTupleArena and probe views.
  StatusOr<PagePin> PinSpilledPage(uint32_t page_no);

  /// Total tuples in this generation.
  uint64_t num_tuples() const { return total_tuples_; }

 private:
  Disk* disk_;
  Schema schema_;
  std::string name_;
  uint32_t memory_pages_;
  // Serialized records; arena blocks never move, also when the cache is
  // moved, so views into them stay valid until the next spill.
  RecordArena memory_records_;
  std::vector<TupleView> memory_views_;
  size_t memory_bytes_ = 0;
  TempRelation spill_;
  uint64_t total_tuples_ = 0;
};

}  // namespace tempo

#endif  // TEMPO_CORE_TUPLE_CACHE_H_
