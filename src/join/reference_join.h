#ifndef TEMPO_JOIN_REFERENCE_JOIN_H_
#define TEMPO_JOIN_REFERENCE_JOIN_H_

#include <vector>

#include "common/statusor.h"
#include "obs/exec_options.h"
#include "relation/schema.h"
#include "relation/tuple.h"

namespace tempo {

/// The in-memory ground truths every paged operator is checked against.
/// All are O(input size) or worse, entirely in memory: testing and the
/// reference executor only.

/// Straight transcription of the paper's tuple-relational-calculus
/// definition of r ⋈ᵥ s (Section 2), generalized over the join kind and
/// the temporal predicate. For every pair (x, y) agreeing on the shared
/// attributes whose Allen relation belongs to `predicate`, emit z =
/// (A, B, C) stamped with PredicateResultInterval(x[V], y[V]): the
/// intersection for chronon-sharing pairs, the covering span for the
/// adjacency/disjoint relations. O(|r|·|s|).
///
/// The sequenced outer kinds additionally emit, per preserved-side tuple,
/// the subintervals of its validity not overlapped by any key-matching
/// partner (IntervalSet::SubtractAll), NULL-padding the other side's
/// private attributes; kAnti emits *only* the unmatched r subintervals in
/// r's own schema. The outer and anti kinds are defined over the default
/// overlap predicate only: any other predicate with a non-inner kind is
/// InvalidArgument, as ValidateExecOptions rules.
///
/// Every executor × predicate × kind must produce exactly this multiset
/// of tuples (in any order).
StatusOr<std::vector<Tuple>> ReferenceJoin(
    const Schema& r_schema, const std::vector<Tuple>& r,
    const Schema& s_schema, const std::vector<Tuple>& s,
    JoinKind kind = JoinKind::kInner,
    TemporalPredicate predicate = TemporalPredicate::Overlap());

/// Coalescing [JSS92a]: merges value-equivalent tuples (equal on all
/// explicit attributes, NULL equal to NULL) whose validity intervals
/// overlap or are adjacent into maximal-interval tuples. The oracle of
/// PartitionCoalesce; output is grouped by value (Value order), intervals
/// ascending.
std::vector<Tuple> ReferenceCoalesce(const std::vector<Tuple>& tuples);

/// Valid-timeslice τ_t(r): the tuples valid at chronon `t`, their
/// timestamps collapsed to [t, t], in input order.
std::vector<Tuple> Timeslice(const std::vector<Tuple>& tuples, Chronon t);

/// Multiset equality of tuple vectors, ignoring order. Values compare
/// under Value's order, so NaN payloads of the same attribute are equal,
/// as coalescing and grouping treat them (Value::operator== and NaN join
/// keys keep IEEE semantics: NaN matches nothing).
bool SameTupleMultiset(std::vector<Tuple> a, std::vector<Tuple> b);

}  // namespace tempo

#endif  // TEMPO_JOIN_REFERENCE_JOIN_H_
