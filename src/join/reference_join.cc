#include "join/reference_join.h"

#include <algorithm>
#include <map>
#include <string>

#include "join/join_common.h"
#include "temporal/interval_set.h"

namespace tempo {

namespace {

/// Appends the unmatched rows of the side `outer` (an r-side when
/// `preserved_is_r`, else an s-side) against partners `inner`: per outer
/// tuple, subtract every key-matching partner's overlap from its validity
/// and emit one row per remaining subinterval.
void AppendUnmatched(const NaturalJoinLayout& layout, bool preserved_is_r,
                     const std::vector<Tuple>& outer,
                     const std::vector<Tuple>& inner, JoinKind kind,
                     std::vector<Tuple>* out) {
  const std::vector<size_t>& outer_keys =
      preserved_is_r ? layout.r_join_attrs : layout.s_join_attrs;
  const std::vector<size_t>& inner_keys =
      preserved_is_r ? layout.s_join_attrs : layout.r_join_attrs;
  for (const Tuple& x : outer) {
    std::vector<Interval> covered;
    for (const Tuple& y : inner) {
      if (!x.EqualOnAttrs(outer_keys, inner_keys, y)) continue;
      auto common = Overlap(x.interval(), y.interval());
      if (common) covered.push_back(*common);
    }
    const IntervalSet uncovered = SubtractAll(x.interval(), covered);
    for (const Interval& iv : uncovered.intervals()) {
      out->push_back(kind == JoinKind::kAnti
                         ? MakeAntiTuple(x, iv)
                         : MakeUnmatchedTuple(layout, preserved_is_r, x, iv));
    }
  }
}

}  // namespace

StatusOr<std::vector<Tuple>> ReferenceJoin(
    const Schema& r_schema, const std::vector<Tuple>& r,
    const Schema& s_schema, const std::vector<Tuple>& s, JoinKind kind,
    TemporalPredicate predicate) {
  if (kind != JoinKind::kInner && !predicate.IsOverlapDefault()) {
    return Status::InvalidArgument(
        std::string(JoinKindName(kind)) + " join with predicate '" +
        predicate.Name() +
        "': sequenced outer/anti semantics are defined over the default "
        "overlap predicate only");
  }
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         DeriveNaturalJoinLayout(r_schema, s_schema));
  std::vector<Tuple> out;
  if (kind != JoinKind::kAnti) {
    for (const Tuple& x : r) {
      for (const Tuple& y : s) {
        if (!x.EqualOnAttrs(layout.r_join_attrs, layout.s_join_attrs, y)) {
          continue;
        }
        if (!predicate.Matches(x.interval(), y.interval())) continue;
        out.push_back(MakeJoinTuple(
            layout, x, y,
            PredicateResultInterval(x.interval(), y.interval())));
      }
    }
  }
  if (kind == JoinKind::kInner) return out;
  AppendUnmatched(layout, /*preserved_is_r=*/true, r, s, kind, &out);
  if (kind == JoinKind::kFullOuter) {
    AppendUnmatched(layout, /*preserved_is_r=*/false, s, r, kind, &out);
  }
  return out;
}

std::vector<Tuple> ReferenceCoalesce(const std::vector<Tuple>& tuples) {
  std::map<std::vector<Value>, std::vector<Interval>> groups;
  for (const Tuple& t : tuples) groups[t.values()].push_back(t.interval());
  std::vector<Tuple> out;
  for (auto& [values, intervals] : groups) {
    const IntervalSet merged(std::move(intervals));
    for (const Interval& iv : merged.intervals()) out.emplace_back(values, iv);
  }
  return out;
}

std::vector<Tuple> Timeslice(const std::vector<Tuple>& tuples, Chronon t) {
  std::vector<Tuple> out;
  for (const Tuple& x : tuples) {
    if (x.interval().Contains(t)) {
      out.emplace_back(x.values(), Interval::At(t));
    }
  }
  return out;
}

namespace {

// Strict weak order over tuples for canonical sorting, by interval and
// then value by value under Value's order, in which all NaNs of an
// attribute are equivalent; only used to compare multisets.
bool TupleLess(const Tuple& a, const Tuple& b) {
  if (a.interval().start() != b.interval().start()) {
    return a.interval().start() < b.interval().start();
  }
  if (a.interval().end() != b.interval().end()) {
    return a.interval().end() < b.interval().end();
  }
  size_t n = std::min(a.num_values(), b.num_values());
  for (size_t i = 0; i < n; ++i) {
    if (a.value(i) < b.value(i)) return true;
    if (b.value(i) < a.value(i)) return false;
  }
  return a.num_values() < b.num_values();
}

}  // namespace

bool SameTupleMultiset(std::vector<Tuple> a, std::vector<Tuple> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end(), TupleLess);
  std::sort(b.begin(), b.end(), TupleLess);
  // Equivalence under TupleLess, not Tuple::operator==: a NaN payload
  // equals the NaN of the same attribute, as in coalescing and grouping.
  for (size_t i = 0; i < a.size(); ++i) {
    if (TupleLess(a[i], b[i]) || TupleLess(b[i], a[i])) return false;
  }
  return true;
}

}  // namespace tempo
