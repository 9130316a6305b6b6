#ifndef TEMPO_RELATION_COLUMN_EXTRACT_H_
#define TEMPO_RELATION_COLUMN_EXTRACT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "relation/schema.h"
#include "relation/tuple_view.h"
#include "storage/page.h"
#include "temporal/interval.h"

namespace tempo {

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

/// Extracts join-key hash and valid-time interval columns from a stream of
/// pages, holding a pin on each page so the per-row TupleViews stay valid
/// for the consuming join phase (the emit step re-reads record bytes
/// through them).
///
/// Pages are held as PagePins, exactly like PageTupleArena — the disk's
/// stored bytes, not copies — but extraction also fills the flat
/// JoinColumns arrays in the same walk, so the radix join filters on the
/// columns and touches record bytes only to read or confirm a key and to
/// emit.
///
/// The extractor is the row source FlatIndex::Build and ProbeFlatIndex
/// read (key_hash/start/end/view/key_attrs per row), as BuildArea is.
///
/// The schema passed to the constructor must outlive the extractor (its
/// cached RecordLayout backs every view).
class ColumnExtractor {
 public:
  /// `key_attrs` are the join-attribute positions hashed into
  /// JoinColumns::key_hashes; kept by pointer, caller owns.
  ColumnExtractor(const Schema* schema, const std::vector<size_t>* key_attrs)
      : schema_(schema), key_attrs_(key_attrs) {}

  ColumnExtractor(const ColumnExtractor&) = delete;
  ColumnExtractor& operator=(const ColumnExtractor&) = delete;

  /// Holds `page` and appends one column entry + view per record. Returns
  /// the number of records appended, or the first record-corruption error
  /// (the page is dropped again, leaving the extractor consistent).
  /// The arrays grow geometrically, so a whole extraction is amortised
  /// O(rows); reserving per page would reallocate every array each time.
  StatusOr<size_t> AddPage(PagePin page);

  /// Same, for a page held by value: copies it into a new pin first.
  StatusOr<size_t> AddPage(const Page& page) {
    return AddPage(std::make_shared<const Page>(page));
  }

  /// The extracted columns, indexed by row ordinal.
  const JoinColumns& columns() const { return cols_; }

  /// Row ordinal -> validated view over the pinned record bytes.
  const std::vector<TupleView>& views() const { return views_; }

  // Per-row access in the shape FlatIndex and ProbeFlatIndex read.
  const TupleView& view(size_t row) const { return views_[row]; }
  uint64_t key_hash(size_t row) const { return cols_.key_hashes[row]; }
  Chronon start(size_t row) const { return cols_.starts[row]; }
  Chronon end(size_t row) const { return cols_.ends[row]; }
  const std::vector<size_t>& key_attrs() const { return *key_attrs_; }

  size_t num_rows() const { return views_.size(); }
  size_t num_pages() const { return pages_.size(); }

  /// Exact bytes of pinned pages plus per-row column/view state. This is
  /// the number the radix join charges against its memory budget — it is
  /// deterministic (no allocator slack is counted), so budget-driven
  /// fallback decisions reproduce across runs and platforms with the same
  /// type sizes.
  uint64_t footprint_bytes() const {
    return static_cast<uint64_t>(pages_.size()) * kPageSize +
           static_cast<uint64_t>(views_.size()) * kColumnRowBytes;
  }

  /// Invalidates all views and columns handed out so far.
  void Clear() {
    pages_.clear();
    views_.clear();
    cols_ = JoinColumns{};
  }

 private:
  const Schema* schema_;
  const std::vector<size_t>* key_attrs_;
  std::vector<PagePin> pages_;
  std::vector<TupleView> views_;
  JoinColumns cols_;
};

}  // namespace tempo

#endif  // TEMPO_RELATION_COLUMN_EXTRACT_H_
