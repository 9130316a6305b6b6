#ifndef TEMPO_RELATION_COLUMN_EXTRACT_H_
#define TEMPO_RELATION_COLUMN_EXTRACT_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "relation/schema.h"
#include "relation/tuple_view.h"
#include "storage/page.h"
#include "temporal/interval.h"

namespace tempo {

/// Appends a view of each record on `page` to `views`, in slot order, up
/// to the first record TupleView::Make rejects, whose error it returns;
/// the views made before it stay. They borrow `page`'s bytes and `layout`.
/// Every reader of stored records parses them here.
Status AppendPageViews(const RecordLayout& layout, const Page& page,
                       std::vector<TupleView>* views);

/// Append-only record storage in blocks, for records that must outlive
/// the page they were read from: a build side's purge survivors, the
/// co-sweep's active maps, the tuple cache's in-memory page. A block never
/// reallocates, so a pointer returned by Copy stays valid until Clear() —
/// and across a move of the arena. Clear() keeps the blocks for reuse; a
/// holder that drops rows re-packs the survivors into a second arena and
/// swaps the two.
class RecordArena {
 public:
  /// Copies `record` into the arena and returns the copy's address.
  const char* Copy(std::string_view record);

  void Clear() {
    block_ = 0;
    used_ = 0;
  }

 private:
  /// Bytes of block `i`: one page, doubling up to 16 pages. A record never
  /// exceeds a page, so it fits any block. A holder of a few records — the
  /// tuple cache's one-page area, made anew for every partition — takes
  /// one page: freeing a 64 KiB block per partition makes glibc trim the
  /// heap and fault it back in (about 30 times the minor page faults on
  /// perfbench's paged-paper workload).
  static constexpr size_t BlockBytes(size_t i) {
    return kPageSize << (i < 4 ? i : 4);
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t block_ = 0;  // index of the block being filled
  size_t used_ = 0;   // bytes used in blocks_[block_]
};

/// Flat join columns extracted from one relation's page stream: one
/// structure-of-arrays entry per record, in page order then slot order, so
/// entry i corresponds to row ordinal i of the relation.
///
/// `key_hashes` is TupleView::HashAttrs over the join attributes —
/// bit-compatible with Tuple::HashAttrs, NULL == NULL included, and
/// finish-mixed, so its low bits are usable as a hash-table slot.
/// `starts`/`ends` are the record's valid-time interval.
struct JoinColumns {
  std::vector<uint64_t> key_hashes;
  std::vector<Chronon> starts;
  std::vector<Chronon> ends;

  size_t num_rows() const { return key_hashes.size(); }

  void Resize(size_t n) {
    key_hashes.resize(n);
    starts.resize(n);
    ends.resize(n);
  }
};

/// Per-row footprint the extractor charges against the in-memory budget:
/// the three column entries, a 4-byte row ordinal (the entry that places
/// the row in the build side's hash grouping) and the pinned TupleView.
inline constexpr uint64_t kColumnRowBytes =
    sizeof(uint64_t) + 2 * sizeof(Chronon) + sizeof(uint32_t) +
    sizeof(TupleView);

/// The memory-resident rows of one join side, and the one row source
/// FlatIndex::Build and ProbeFlatIndex read (key_hash/start/end/view/
/// key_attrs per row): the radix join's two sides, the partition area of
/// Figure 3, a nested-loop or indexed outer block, and the view's
/// recomputed partition.
///
/// AddPage holds a PagePin — the disk's stored bytes, not a copy, exactly
/// like PageTupleArena — and appends one validated TupleView per record,
/// filling the flat JoinColumns arrays in the same walk, so a probe
/// filters on the columns and touches record bytes only to read or
/// confirm a key and to emit. PurgeNotOverlapping copies only the
/// surviving rows' record bytes into a RecordArena and drops every pin, so
/// after a purge the rows live in the arena and no page is held.
///
/// The schema passed to the constructor must outlive the extractor (its
/// cached RecordLayout backs every view).
class ColumnExtractor {
 public:
  /// Per-row page overhead charged to bytes() (one slot entry).
  static constexpr size_t kSlotOverhead = 4;

  /// `key_attrs` are the join-attribute positions hashed into
  /// JoinColumns::key_hashes; kept by pointer, caller owns.
  ColumnExtractor(const Schema* schema, const std::vector<size_t>* key_attrs)
      : schema_(schema), key_attrs_(key_attrs) {}

  ColumnExtractor(const ColumnExtractor&) = delete;
  ColumnExtractor& operator=(const ColumnExtractor&) = delete;

  /// Holds `page` and appends one column entry + view per record. Returns
  /// the number of records appended, or the first record-corruption error
  /// (the page's rows are dropped again, leaving the extractor consistent).
  /// The arrays grow geometrically, so a whole extraction is amortised
  /// O(rows); reserving per page would reallocate every array each time.
  StatusOr<size_t> AddPage(PagePin page);

  /// Same, for a page held by value: copies it into a new pin first.
  StatusOr<size_t> AddPage(const Page& page) {
    return AddPage(std::make_shared<const Page>(page));
  }

  /// Keeps the rows whose interval overlaps `p`, in order, and drops the
  /// rest. `visit(row, kept)` sees every row, in order, before anything
  /// moves, so a dropped row's view is still readable there; a non-OK
  /// status aborts the purge with the rows unchanged. The survivors' record
  /// bytes are then re-packed into a second arena that swaps with the
  /// first, and every page pin is dropped: the rows left are the
  /// survivors, in the arena; both arenas keep their blocks for reuse.
  template <typename Visit>
  Status PurgeNotOverlapping(const Interval& p, Visit&& visit) {
    for (size_t row = 0; row < num_rows(); ++row) {
      TEMPO_RETURN_IF_ERROR(visit(row, OverlapsRow(row, p)));
    }
    Repack(p);
    return Status::OK();
  }

  /// The extracted columns, indexed by row ordinal.
  const JoinColumns& columns() const { return cols_; }

  /// Row ordinal -> validated view over the pinned or re-packed record.
  const std::vector<TupleView>& views() const { return views_; }

  // Per-row access in the shape FlatIndex and ProbeFlatIndex read.
  const TupleView& view(size_t row) const { return views_[row]; }
  uint64_t key_hash(size_t row) const { return cols_.key_hashes[row]; }
  Chronon start(size_t row) const { return cols_.starts[row]; }
  Chronon end(size_t row) const { return cols_.ends[row]; }
  const std::vector<size_t>& key_attrs() const { return *key_attrs_; }

  size_t num_rows() const { return views_.size(); }
  size_t num_pages() const { return pages_.size(); }

  /// The rows' size in page terms: each row's record plus its 4-byte slot,
  /// exactly Tuple::SerializedSize + slot overhead of the decoded tuple.
  /// The partition join sizes its overflow chunks by it.
  size_t bytes() const { return bytes_; }

  /// Exact bytes of pinned pages plus per-row column/view state. This is
  /// the number the radix join charges against its memory budget — it is
  /// deterministic (no allocator slack is counted), so budget-driven
  /// fallback decisions reproduce across runs and platforms with the same
  /// type sizes.
  uint64_t footprint_bytes() const {
    return static_cast<uint64_t>(pages_.size()) * kPageSize +
           static_cast<uint64_t>(views_.size()) * kColumnRowBytes;
  }

  /// Invalidates all views and columns handed out so far; keeps the
  /// arrays' capacity and the arenas' blocks for the next rows.
  void Clear();

 private:
  bool OverlapsRow(size_t row, const Interval& p) const {
    return start(row) <= p.end() && p.start() <= end(row);
  }

  /// Moves the rows overlapping `p` into spare_, swaps the arenas and
  /// drops every page pin.
  void Repack(const Interval& p);

  const Schema* schema_;
  const std::vector<size_t>* key_attrs_;
  std::vector<PagePin> pages_;
  std::vector<TupleView> views_;
  JoinColumns cols_;
  size_t bytes_ = 0;
  RecordArena arena_;  // purge survivors' record bytes
  RecordArena spare_;  // re-pack target of PurgeNotOverlapping
};

}  // namespace tempo

#endif  // TEMPO_RELATION_COLUMN_EXTRACT_H_
