#ifndef TEMPO_JOIN_FLAT_INDEX_H_
#define TEMPO_JOIN_FLAT_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "join/join_common.h"
#include "relation/column_extract.h"
#include "relation/tuple_view.h"
#include "temporal/interval.h"

namespace tempo {

/// A flat equi-hash index over the rows [begin, end) of a ColumnExtractor,
/// the one build-side row source. One counting sort groups the rows by the
/// low bits of their key hash into a power-of-two slot table; each entry
/// carries a key word and the row's interval, so a probe filters on one
/// contiguous run without touching record bytes.
///
/// The key word is the key itself when the key is a single int64
/// attribute that no indexed row leaves NULL (key_words()): a probe then
/// settles key equality on the entry alone, and a NULL probe key matches
/// nothing. Any other key — composite, string or double, or with a NULL
/// among the indexed rows — keeps the row's full key hash there, and the
/// caller confirms the key on the records. Either way the slot comes from
/// the hash, so slot contents and walk order do not depend on the mode.
///
/// A probe's matches come in an order fixed by the index alone: by
/// default (Walk::kNewestFirst) in descending row order, and under
/// Walk::kOldestFirst in ascending row order, which is the reference
/// join's inner-loop order. Executors' output bytes depend on it.
class FlatIndex {
 public:
  struct Entry {
    uint64_t word;  // the int64 key when key_words(), else the key hash
    Chronon start;
    Chronon end;
    uint32_t row;  // source row
  };

  /// The order in which ForEachCandidate visits a slot's rows.
  enum class Walk { kNewestFirst, kOldestFirst };

  /// Indexes `rows`' rows [begin, end), replacing any previous contents.
  void Build(const ColumnExtractor& rows, size_t begin, size_t end,
             Walk walk = Walk::kNewestFirst) {
    TEMPO_DCHECK(begin <= end);
    TEMPO_DCHECK(end <= UINT32_MAX);
    const size_t n = end - begin;
    entries_.clear();
    key_words_ = false;
    if (n == 0) return;
    const std::vector<size_t>& keys = rows.key_attrs();
    const bool int64_key =
        keys.size() == 1 &&
        rows.view(begin).layout().types[keys[0]] == ValueType::kInt64;
    key_words_ = int64_key;
    size_t slots = 1;
    while (slots < n) slots <<= 1;
    mask_ = slots - 1;
    // Counting sort by slot: count, prefix-sum to each slot's end, then
    // place each row at its slot's next free position from the back, so
    // offsets_[s] ends at slot s's first entry. Placing back to front
    // keeps each run in insertion order (walked in reverse: newest
    // first); placing front to back reverses it (walked: oldest first).
    offsets_.assign(slots + 1, 0);
    for (size_t row = begin; row < end; ++row) {
      ++offsets_[rows.key_hash(row) & mask_];
    }
    for (size_t s = 1; s < slots; ++s) offsets_[s] += offsets_[s - 1];
    offsets_[slots] = static_cast<uint32_t>(n);
    entries_.resize(n);
    // Each row's record is read once, here, for its key; the first NULL
    // key turns key words off.
    auto place = [&](size_t row) {
      const uint64_t h = rows.key_hash(row);
      uint64_t word = h;
      if (key_words_) {
        const TupleView& v = rows.view(row);
        if (v.is_null(keys[0])) {
          key_words_ = false;
        } else {
          word = static_cast<uint64_t>(v.Int64At(keys[0]));
        }
      }
      entries_[--offsets_[h & mask_]] = Entry{word, rows.start(row),
                                              rows.end(row),
                                              static_cast<uint32_t>(row)};
    };
    if (walk == Walk::kNewestFirst) {
      for (size_t row = end; row-- > begin;) place(row);
    } else {
      for (size_t row = begin; row < end; ++row) place(row);
    }
    if (int64_key && !key_words_) {
      // A NULL key came up part way: every entry carries its hash instead.
      for (Entry& e : entries_) e.word = rows.key_hash(e.row);
    }
  }

  /// True when every entry's word is its row's int64 key, so a candidate
  /// is a key match; false when it is the key hash, which the caller must
  /// confirm on the records.
  bool key_words() const { return key_words_; }

  /// Invokes `fn(const Entry&)` for every entry of probe `y`'s slot whose
  /// word equals y's — its key on `probe_keys` under key_words() (none if
  /// that is NULL), else `y_hash`, y's key hash — in the Walk order the
  /// index was built with.
  template <typename Fn>
  void ForEachCandidate(const TupleView& y,
                        const std::vector<size_t>& probe_keys,
                        uint64_t y_hash, Fn&& fn) const {
    if (entries_.empty()) return;
    uint64_t word = y_hash;
    if (key_words_) {
      TEMPO_DCHECK(probe_keys.size() == 1);
      if (y.is_null(probe_keys[0])) return;
      word = static_cast<uint64_t>(y.Int64At(probe_keys[0]));
    }
    const size_t slot = y_hash & mask_;
    const uint32_t first = offsets_[slot];
    for (uint32_t k = offsets_[slot + 1]; k-- > first;) {
      const Entry& e = entries_[k];
      if (e.word == word) fn(e);
    }
  }

  /// Slots in the table (0 when the index is empty).
  size_t num_slots() const { return entries_.empty() ? 0 : mask_ + 1; }

  /// Slots holding at least one row.
  size_t occupied_slots() const {
    size_t occupied = 0;
    for (size_t s = 0; s < num_slots(); ++s) {
      occupied += offsets_[s + 1] != offsets_[s];
    }
    return occupied;
  }

 private:
  std::vector<uint32_t> offsets_;  // slot -> first entry; slots + 1 long
  std::vector<Entry> entries_;     // grouped by slot
  uint64_t mask_ = 0;
  bool key_words_ = false;
};

static_assert(sizeof(FlatIndex::Entry) == 32);

/// The filters of one probe, the match phase of ProbeFlatIndex (below),
/// which is the only caller: for probe record `y` with key hash `y_hash`
/// and interval `y_iv`, invokes `fn(row, overlap)` for each build row x
/// that joins it, in FlatIndex order. The filters run cheapest first —
/// the key word (the key itself for a single non-NULL int64 key, else the
/// full key hash), interval overlap, the de-duplication rule (the overlap
/// must end in `dedup`, when given), the temporal predicate — on the index
/// columns. Only an index of key hashes then reads record bytes, to
/// confirm the key; under key words the first read of a matched build
/// record is ProbeFlatIndex's prefetch. The predicate is tested as
/// predicate(x, y): build row first.
template <typename Fn>
void ForEachFlatMatch(const ColumnExtractor& build, const FlatIndex& index,
                      const TupleView& y, uint64_t y_hash,
                      const Interval& y_iv,
                      const std::vector<size_t>& probe_keys,
                      const TemporalPredicate& predicate,
                      const Interval* dedup, Fn&& fn) {
  const bool confirm_keys = !index.key_words();
  index.ForEachCandidate(y, probe_keys, y_hash,
                         [&](const FlatIndex::Entry& e) {
    const Chronon lo = std::max(e.start, y_iv.start());
    const Chronon hi = std::min(e.end, y_iv.end());
    if (lo > hi) return;
    if (dedup != nullptr && !dedup->Contains(hi)) return;
    if (!PredicateAdmitsOverlapping(predicate, Interval(e.start, e.end),
                                    y_iv)) {
      return;
    }
    if (confirm_keys &&
        !y.EqualOnAttrs(probe_keys, build.key_attrs(), build.view(e.row))) {
      return;
    }
    fn(static_cast<size_t>(e.row), Interval(lo, hi));
  });
}

/// One probe record for ProbeFlatIndex: its view, key hash and interval.
struct FlatProbe {
  const TupleView* view;
  uint64_t hash;
  Interval interval;

  /// A probe whose hash and interval are read from `y`'s record.
  static FlatProbe Of(const TupleView& y, const std::vector<size_t>& keys) {
    return FlatProbe{&y, y.HashAttrs(keys), y.interval()};
  }
};

/// Probes ProbeFlatIndex matches as one group before it applies any.
inline constexpr size_t kFlatProbeGroup = 16;
/// Matches ProbeFlatIndex buffers between matching and applying them; the
/// buffer is this fixed size whatever the key skew.
inline constexpr size_t kFlatMatchCap = 64;

/// Prefetches every cache line of `bytes`, at addresses inside them.
inline void PrefetchBytes(std::string_view bytes) {
  constexpr uintptr_t kLineBytes = 64;
  const uintptr_t end = reinterpret_cast<uintptr_t>(bytes.data()) +
                        bytes.size();
  for (uintptr_t a = reinterpret_cast<uintptr_t>(bytes.data()); a < end;
       a = (a | (kLineBytes - 1)) + 1) {
    __builtin_prefetch(reinterpret_cast<const void*>(a));
  }
}

/// The probe kernel every build-side executor shares: joins probes
/// [0, num_probes) — `probe_at(i)` returns probe i as a FlatProbe — against
/// `build` through `index`, and calls `on_match(i, row, overlap)` for each
/// build row that joins probe i, in FlatIndex order, then
/// `after_probe(i)`: exactly the calls, in exactly the order, of a loop
/// that runs ForEachFlatMatch on one probe at a time. Both return Status,
/// and the first non-OK one is returned with nothing called after it.
///
/// The probes go in groups of kFlatProbeGroup, in three phases:
///   1. match: ForEachFlatMatch's filters on the index columns (and, for
///      an index of key hashes, the key confirm) append each
///      (probe, row, overlap) to a match buffer, prefetching the row's
///      view; nothing is called and nothing written;
///   2. prefetch: every matched row's record bytes;
///   3. apply: on_match and after_probe, in order.
/// So no emission waits alone on its match's cache misses: a group's
/// misses overlap each other. The buffer holds kFlatMatchCap matches; a
/// probe that matches more (one hot key can match a whole build area) is
/// applied in cap-sized pieces, in order.
template <typename ProbeAt, typename OnMatch, typename AfterProbe>
Status ProbeFlatIndex(const ColumnExtractor& build, const FlatIndex& index,
                      size_t num_probes, ProbeAt&& probe_at,
                      const std::vector<size_t>& probe_keys,
                      const TemporalPredicate& predicate,
                      const Interval* dedup, OnMatch&& on_match,
                      AfterProbe&& after_probe) {
  struct Match {
    uint32_t probe;  // offset in the group
    uint32_t row;
    Chronon lo;
    Chronon hi;
  };
  // Left uninitialised: only matches[0, buffered) is read, and every entry
  // there was written first (zeroing it cost a 1.5 KiB store per call).
  Match matches[kFlatMatchCap];
  size_t buffered = 0;
  size_t group = 0;    // the group's first probe
  size_t applied = 0;  // probes whose after_probe has run
  // Phases 2 and 3 over the buffer; then after_probe for every probe
  // before `done`, all of whose matches are then applied.
  auto apply = [&](size_t done) -> Status {
    for (size_t m = 0; m < buffered; ++m) {
      PrefetchBytes(build.view(matches[m].row).record());
    }
    for (size_t m = 0; m < buffered; ++m) {
      const Match& match = matches[m];
      const size_t probe = group + match.probe;
      while (applied < probe) TEMPO_RETURN_IF_ERROR(after_probe(applied++));
      TEMPO_RETURN_IF_ERROR(on_match(probe, static_cast<size_t>(match.row),
                                     Interval(match.lo, match.hi)));
    }
    buffered = 0;
    while (applied < done) TEMPO_RETURN_IF_ERROR(after_probe(applied++));
    return Status::OK();
  };
  Status status = Status::OK();
  for (; group < num_probes; group += kFlatProbeGroup) {
    const size_t group_end = std::min(num_probes, group + kFlatProbeGroup);
    for (size_t i = group; i < group_end; ++i) {
      const FlatProbe probe = probe_at(i);
      ForEachFlatMatch(build, index, *probe.view, probe.hash, probe.interval,
                       probe_keys, predicate, dedup,
                       [&](size_t row, const Interval& overlap) {
                         if (!status.ok()) return;
                         if (buffered == kFlatMatchCap) {
                           status = apply(i);
                           if (!status.ok()) return;
                         }
                         __builtin_prefetch(&build.view(row));
                         matches[buffered++] =
                             Match{static_cast<uint32_t>(i - group),
                                   static_cast<uint32_t>(row),
                                   overlap.start(), overlap.end()};
                       });
      TEMPO_RETURN_IF_ERROR(status);
    }
    TEMPO_RETURN_IF_ERROR(apply(group_end));
  }
  return Status::OK();
}

/// Same, with nothing to do after a probe.
template <typename ProbeAt, typename OnMatch>
Status ProbeFlatIndex(const ColumnExtractor& build, const FlatIndex& index,
                      size_t num_probes, ProbeAt&& probe_at,
                      const std::vector<size_t>& probe_keys,
                      const TemporalPredicate& predicate,
                      const Interval* dedup, OnMatch&& on_match) {
  return ProbeFlatIndex(build, index, num_probes,
                        std::forward<ProbeAt>(probe_at), probe_keys,
                        predicate, dedup, std::forward<OnMatch>(on_match),
                        [](size_t) { return Status::OK(); });
}

}  // namespace tempo

#endif  // TEMPO_JOIN_FLAT_INDEX_H_
