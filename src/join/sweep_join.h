#ifndef TEMPO_JOIN_SWEEP_JOIN_H_
#define TEMPO_JOIN_SWEEP_JOIN_H_

#include "join/join_common.h"

namespace tempo {

/// Endpoint-sorted sweep evaluation of the generalized temporal join,
/// after Piatov, Helmer, Dignös and Persia (arXiv 2008.12665): both
/// relations are externally sorted by (Vs, Ve) — reusing ExternalSortByVs's
/// run formation, so the sort I/O is charged identically to sort-merge and
/// is thread-invariant — then joined in ONE forward sweep over the merged
/// arrival order.
///
/// Each side keeps a *gapless append-only active map*: flat parallel
/// arrays (interval ends, key hashes, tuples — structure-of-arrays, so the
/// liveness filter of a probe touches only the contiguous end array) plus
/// hash buckets of indices into them. Arrivals are appended, never
/// updated in place; expired entries are skipped lazily during probes and
/// physically reclaimed by a global compaction only when more than half of
/// the append log is dead, which keeps the map gapless and the amortized
/// maintenance cost O(1) per tuple. An arriving tuple probes the opposite
/// map as a zero-copy TupleView (hash and key equality run on the sorted
/// page bytes) and is materialized exactly once, for its own insertion.
///
/// Predicate support — the reason this executor exists — is the full
/// shared-chronon-or-adjacent family: any TemporalPredicate not containing
/// before/after. Emission is specialized per predicate class, chosen once
/// per run:
///   - the default overlap disjunction: every live key match overlaps by
///     construction (it arrived no later and has not expired), so matches
///     are emitted without classifying;
///   - narrower chronon-sharing sets (during, starts/finishes/equals
///     endpoint equality, contain-join, ...): classify + mask test;
///   - sets with meets/met-by: the expiry bound is slackened by one
///     chronon so an entry ending exactly one chronon before the sweep
///     position survives to meet its adjacent partner, and classification
///     runs in (r, s) argument order on both probe directions.
/// Predicates containing before/after match unboundedly separated tuples
/// and are rejected (only the reference oracle evaluates those).
///
/// Output is written in canonical order (ResultWriter::Canonical), so a
/// sweep run is byte-identical to the extended reference oracle — and to
/// itself at any thread count — for every supported predicate. Result
/// stamps come from PredicateResultInterval (intersection, else span).
///
/// Inner joins only. Metrics: kSortIoOps, kSweepActivePeak, kSweepAppends,
/// kSweepCompactions, kSweepProbeHits, kJoinPredicateMask (always set),
/// kDecodeMaterializationsAvoided. Traced as kSweepJoin with nested
/// sort r / sort s / sweep pass spans.
StatusOr<JoinRunStats> SweepVtJoin(StoredRelation* r, StoredRelation* s,
                                   StoredRelation* out,
                                   const ExecOptions& options,
                                   ExecContext* ctx = nullptr);

}  // namespace tempo

#endif  // TEMPO_JOIN_SWEEP_JOIN_H_
