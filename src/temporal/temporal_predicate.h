#ifndef TEMPO_TEMPORAL_TEMPORAL_PREDICATE_H_
#define TEMPO_TEMPORAL_TEMPORAL_PREDICATE_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "temporal/allen.h"
#include "temporal/interval.h"

namespace tempo {

/// A first-class temporal join predicate: a non-empty disjunction of
/// Allen's thirteen basic interval relations, represented as a 13-bit
/// mask. Because exactly one Allen relation holds between any pair of
/// intervals, any interval predicate expressible as "the relation of x
/// to y is one of this set" — which covers the whole family the paper
/// surveys in Section 4.1 (time-join, intersect-join, contain-join) as
/// well as the extended Allen-relation joins of Piatov et al. — is one
/// TemporalPredicate value, and evaluating it is a classify + mask test.
///
/// The default-constructed predicate is `overlap`: the disjunction of
/// the nine chronon-sharing relations, i.e. the valid-time natural
/// join's matching condition. The Section 4.1 family members are the
/// named constructors Overlap, ContainJoin, ContainedJoin and EqualJoin.
///
/// Taxonomy used by executors and the planner:
///   - ImpliesSharedChronon(): every relation in the set shares a
///     chronon, so any overlap-driven executor (nested-loop, sort-merge,
///     indexed, partition, radix, sweep) can serve it by filtering at
///     its emission site.
///   - NeedsAdjacency(): the set includes meets/met-by. Only the sweep
///     executor (whose active-map expiry keeps adjacent tuples alive one
///     extra chronon) and the reference oracle serve these.
///   - HasDisjointNonAdjacent(): the set includes before/after. Such
///     predicates match unboundedly separated tuples; only the
///     brute-force reference oracle serves them.
class TemporalPredicate {
 public:
  /// Default: the nine-relation `overlap` disjunction.
  constexpr TemporalPredicate() : mask_(kOverlapMask) {}

  /// Predicate holding for exactly one Allen relation.
  static constexpr TemporalPredicate Exactly(AllenRelation r) {
    return TemporalPredicate(Bit(r));
  }

  /// Disjunction of the given relations. The list must be non-empty.
  static constexpr TemporalPredicate AnyOf(
      std::initializer_list<AllenRelation> rs) {
    uint16_t m = 0;
    for (AllenRelation r : rs) m |= Bit(r);
    return TemporalPredicate(m);
  }

  /// The nine chronon-sharing relations (the valid-time natural join).
  static constexpr TemporalPredicate Overlap() {
    return TemporalPredicate(kOverlapMask);
  }

  /// x[V] ⊇ y[V] (contain-join): {finished-by, contains, equals,
  /// started-by}.
  static constexpr TemporalPredicate ContainJoin() {
    return AnyOf({AllenRelation::kFinishedBy, AllenRelation::kContains,
                  AllenRelation::kEquals, AllenRelation::kStartedBy});
  }

  /// x[V] ⊆ y[V]: {starts, equals, during, finishes}.
  static constexpr TemporalPredicate ContainedJoin() {
    return AnyOf({AllenRelation::kStarts, AllenRelation::kEquals,
                  AllenRelation::kDuring, AllenRelation::kFinishes});
  }

  /// x[V] = y[V]: {equals}.
  static constexpr TemporalPredicate EqualJoin() {
    return Exactly(AllenRelation::kEquals);
  }

  /// Reconstructs a predicate from a raw mask (e.g. a metric value).
  /// Returns nullopt for an empty mask or bits beyond the 13 relations.
  static constexpr std::optional<TemporalPredicate> FromMask(uint16_t mask) {
    if (mask == 0 || (mask & ~kAllMask) != 0) return std::nullopt;
    return TemporalPredicate(mask);
  }

  /// True iff relation `r` is in the disjunction.
  constexpr bool Test(AllenRelation r) const {
    return (mask_ & Bit(r)) != 0;
  }

  /// Full predicate evaluation: does the relation of `x` to `y` belong
  /// to the set? The default overlap mask short-circuits to the plain
  /// shared-chronon test without classifying.
  bool Matches(const Interval& x, const Interval& y) const {
    if (mask_ == kOverlapMask) return x.Overlaps(y);
    return Test(ClassifyAllen(x, y));
  }

  constexpr bool IsOverlapDefault() const { return mask_ == kOverlapMask; }

  /// The predicate with its operands swapped: Converse().Matches(y, x) ==
  /// Matches(x, y). The overlap default is its own converse.
  TemporalPredicate Converse() const;

  /// Every relation in the set implies a shared chronon (set ⊆ the nine
  /// overlap relations). Such predicates can be served by any executor.
  constexpr bool ImpliesSharedChronon() const {
    return (mask_ & ~kOverlapMask) == 0;
  }

  /// The set includes meets or met-by (endpoint adjacency, no shared
  /// chronon).
  constexpr bool NeedsAdjacency() const {
    return (mask_ & (Bit(AllenRelation::kMeets) |
                     Bit(AllenRelation::kMetBy))) != 0;
  }

  /// The set includes before or after (a gap of unbounded width).
  constexpr bool HasDisjointNonAdjacent() const {
    return (mask_ & (Bit(AllenRelation::kBefore) |
                     Bit(AllenRelation::kAfter))) != 0;
  }

  constexpr uint16_t mask() const { return mask_; }

  constexpr bool operator==(const TemporalPredicate& o) const {
    return mask_ == o.mask_;
  }
  constexpr bool operator!=(const TemporalPredicate& o) const {
    return mask_ != o.mask_;
  }

  /// Stable display name: "overlap" for the default mask, "contains-join"
  /// / "contained-in-join" / the Allen relation name for the other named
  /// shapes, otherwise '|'-joined relation names ("meets|met-by").
  std::string Name() const;

  /// Inverse of Name(): accepts every string Name() can produce plus
  /// bare Allen relation names. Returns nullopt for unknown names.
  static std::optional<TemporalPredicate> Parse(std::string_view name);

 private:
  static constexpr uint16_t Bit(AllenRelation r) {
    return static_cast<uint16_t>(uint16_t{1} << static_cast<int>(r));
  }

  // All relations except before, meets, met-by, after — exactly the set
  // for which ImpliesOverlap() returns true.
  static constexpr uint16_t kOverlapMask =
      static_cast<uint16_t>(0x1FFF & ~(uint16_t{1} << 0) &
                            ~(uint16_t{1} << 1) & ~(uint16_t{1} << 11) &
                            ~(uint16_t{1} << 12));
  static constexpr uint16_t kAllMask = 0x1FFF;

  explicit constexpr TemporalPredicate(uint16_t mask) : mask_(mask) {}

  uint16_t mask_;
};

/// The valid-time stamp carried by a joined result tuple for a matching
/// pair: the chronon intersection when the intervals share chronons
/// (the paper's overlap(U, V)), otherwise — for the adjacency and
/// disjoint relations, which have no intersection — the covering span.
/// The reference oracle and every executor stamp through this single
/// helper so outputs agree byte-for-byte.
inline Interval PredicateResultInterval(const Interval& x, const Interval& y) {
  if (std::optional<Interval> common = x.Intersect(y)) return *common;
  return x.Span(y);
}

}  // namespace tempo

#endif  // TEMPO_TEMPORAL_TEMPORAL_PREDICATE_H_
