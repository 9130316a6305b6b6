#ifndef TEMPO_JOIN_BUILD_AREA_H_
#define TEMPO_JOIN_BUILD_AREA_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "join/join_common.h"
#include "relation/schema.h"
#include "relation/tuple_view.h"
#include "storage/page.h"
#include "temporal/interval.h"

namespace tempo {

/// Append-only record storage in fixed-size blocks, shared by the flat
/// build side (BuildArea) and the co-sweep's active maps. A block never
/// reallocates, so a pointer returned by Copy stays valid until Clear().
/// Clear() keeps the blocks for reuse; a holder that drops rows re-packs
/// the survivors into a second arena and swaps the two.
class RecordArena {
 public:
  /// Block size; a record never exceeds a page, so one always fits.
  static constexpr size_t kBlockBytes = 16 * kPageSize;

  /// Position marker for Rewind().
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };

  /// Copies `record` into the arena and returns the copy's address.
  const char* Copy(std::string_view record);

  Mark mark() const { return {block_, used_}; }

  /// Drops everything copied since `m` was taken.
  void Rewind(Mark m) {
    block_ = m.block;
    used_ = m.used;
  }

  void Clear() { Rewind(Mark{}); }

 private:
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t block_ = 0;  // index of the block being filled
  size_t used_ = 0;   // bytes used in blocks_[block_]
};

/// The memory-resident build side of a join — the partition area of
/// Figure 3, or a nested-loop / indexed outer block — as flat rows:
/// validated records copied into a block arena, a TupleView per row over
/// the copy, and key-hash, start and end columns. No Tuple or Value is
/// built for a build row.
///
/// Byte accounting matches the page layout: each row costs its record
/// size plus a 4-byte slot, exactly Tuple::SerializedSize + slot overhead
/// of the decoded tuple.
class BuildArea {
 public:
  /// Per-row page overhead charged to bytes() (one slot entry).
  static constexpr size_t kSlotOverhead = 4;

  /// `schema` and `key_attrs` are borrowed and must outlive the area.
  BuildArea(const Schema* schema, const std::vector<size_t>* key_attrs)
      : schema_(schema), key_attrs_(key_attrs) {}

  BuildArea(const BuildArea&) = delete;
  BuildArea& operator=(const BuildArea&) = delete;

  /// Validates every record on `page` with TupleView::Make (the checks of
  /// Tuple::Deserialize) and appends them in slot order. On a corrupt
  /// record the page's rows are rolled back and Corruption is returned.
  Status AddPage(const Page& page);

  /// Keeps the rows whose interval overlaps `p`, in order, and drops the
  /// rest. `visit(row, kept)` sees every row, in order, before anything
  /// moves, so a dropped row's view is still readable there; a non-OK
  /// status aborts the purge with the area unchanged. Survivors are
  /// re-packed into a second arena that then swaps with the first, so the
  /// arena in use holds only live rows; both keep their blocks for reuse.
  template <typename Visit>
  Status PurgeNotOverlapping(const Interval& p, Visit&& visit) {
    for (size_t i = 0; i < size(); ++i) {
      TEMPO_RETURN_IF_ERROR(visit(i, OverlapsRow(i, p)));
    }
    Repack(p);
    return Status::OK();
  }

  void Clear();

  size_t size() const { return views_.size(); }
  bool empty() const { return views_.empty(); }
  size_t bytes() const { return bytes_; }

  const TupleView& view(size_t row) const { return views_[row]; }
  uint64_t key_hash(size_t row) const { return key_hashes_[row]; }
  Chronon start(size_t row) const { return starts_[row]; }
  Chronon end(size_t row) const { return ends_[row]; }

  const std::vector<size_t>& key_attrs() const { return *key_attrs_; }

 private:
  bool OverlapsRow(size_t row, const Interval& p) const {
    return starts_[row] <= p.end() && p.start() <= ends_[row];
  }

  /// Appends one row over bytes already in arena_.
  void PushRow(const TupleView& v);

  /// Moves the rows overlapping `p` into spare_ and swaps the arenas.
  void Repack(const Interval& p);

  const Schema* schema_;
  const std::vector<size_t>* key_attrs_;
  RecordArena arena_;
  RecordArena spare_;  // re-pack target of PurgeNotOverlapping
  std::vector<TupleView> views_;
  std::vector<uint64_t> key_hashes_;
  std::vector<Chronon> starts_;
  std::vector<Chronon> ends_;
  size_t bytes_ = 0;
};

/// A flat equi-hash index over the rows [begin, end) of a BuildArea. One
/// counting sort groups the rows by the low bits of their key hash into a
/// power-of-two slot table; each entry carries the row's full hash and
/// interval, so a probe filters on one contiguous run without touching
/// record bytes.
///
/// A probe walks its slot in reverse insertion order and skips entries
/// whose full hash differs. That is the order in which a
/// std::unordered_multimap keyed on the hash returns equal_range (newest
/// first among equal keys), so executors that moved here from
/// HashedTupleIndex emit their matches in the same order.
class FlatIndex {
 public:
  struct Entry {
    uint64_t hash;
    Chronon start;
    Chronon end;
    uint32_t row;  // area row
  };

  /// Indexes `area`'s rows [begin, end), replacing any previous contents.
  void Build(const BuildArea& area, size_t begin, size_t end);

  /// Invokes `fn(const Entry&)` for every entry whose full hash is `hash`,
  /// newest row first.
  template <typename Fn>
  void ForEachCandidate(uint64_t hash, Fn&& fn) const {
    if (entries_.empty()) return;
    const size_t slot = hash & mask_;
    const uint32_t first = offsets_[slot];
    for (uint32_t k = offsets_[slot + 1]; k-- > first;) {
      const Entry& e = entries_[k];
      if (e.hash == hash) fn(e);
    }
  }

 private:
  std::vector<uint32_t> offsets_;  // slot -> first entry; slots + 1 long
  std::vector<Entry> entries_;     // grouped by slot, insertion order
  uint64_t mask_ = 0;
};

/// The probe step every build-side executor shares: for probe record `y`,
/// invokes `fn(row, overlap)` for each area row x that joins it, in
/// FlatIndex order. The filters run cheapest first — full key hash,
/// interval overlap, the de-duplication rule (the overlap must end in
/// `dedup`, when given), the temporal predicate — on the index columns;
/// only rows that pass all four read record bytes, for the key check.
template <typename Fn>
void ForEachFlatMatch(const BuildArea& area, const FlatIndex& index,
                      const TupleView& y,
                      const std::vector<size_t>& probe_keys,
                      const TemporalPredicate& predicate,
                      const Interval* dedup, Fn&& fn) {
  const Interval y_iv = y.interval();
  index.ForEachCandidate(
      y.HashAttrs(probe_keys), [&](const FlatIndex::Entry& e) {
        const Chronon lo = std::max(e.start, y_iv.start());
        const Chronon hi = std::min(e.end, y_iv.end());
        if (lo > hi) return;
        if (dedup != nullptr && !dedup->Contains(hi)) return;
        if (!PredicateAdmitsOverlapping(predicate, Interval(e.start, e.end),
                                        y_iv)) {
          return;
        }
        if (!y.EqualOnAttrs(probe_keys, area.key_attrs(), area.view(e.row))) {
          return;
        }
        fn(static_cast<size_t>(e.row), Interval(lo, hi));
      });
}

}  // namespace tempo

#endif  // TEMPO_JOIN_BUILD_AREA_H_
