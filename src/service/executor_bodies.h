#ifndef TEMPO_SERVICE_EXECUTOR_BODIES_H_
#define TEMPO_SERVICE_EXECUTOR_BODIES_H_

// Internal: the executor bodies RunJoin dispatches to. Only
// service/join_request.cc includes this header (CI enforces it); every
// other caller names an executor through JoinRequest/RunJoin, or calls
// the public PartitionVtJoin for the partition-only knobs.
//
// Each body receives the natural-join layout RunJoinContract derived
// (join/join_executor.h) and returns output_tuples plus its own typed
// counters. The contract has already checked the inputs, the buffSize
// minimum and the predicate, bound the accountant, and afterwards sets
// stats.io, kJoinPredicateMask and exports the metrics — no body repeats
// any of that. With a non-null `ctx` each body traces its run as a span
// tree under its root phase.

#include "core/partition_join.h"
#include "join/join_common.h"

namespace tempo {

/// Block nested-loop evaluation of the valid-time natural join: the outer
/// relation r is read once in blocks of (buffSize - 2) pages; for each
/// block the inner relation s is scanned in full through a single page
/// buffer (the remaining page holds result tuples).
///
/// This is the paper's brute-force comparator (Section 4.1 computed its
/// cost analytically; NestedLoopAnalyticCost reproduces that closed form,
/// and the executor is validated against it). Long-lived tuples do not
/// affect its cost; memory size affects it dramatically — few outer pages
/// in memory means many scans of the inner relation (Section 4.2).
///
/// Metrics: kOuterBlocks, kDecodeMaterializationsAvoided. Traced as one
/// kNestedLoop span.
StatusOr<JoinRunStats> NestedLoopBody(const NaturalJoinLayout& layout,
                                      StoredRelation* r, StoredRelation* s,
                                      StoredRelation* out,
                                      const ExecOptions& options,
                                      ExecContext* ctx);

/// Sort-merge evaluation of the valid-time natural join [SG89, LM90 style]:
/// both relations are externally sorted on interval start, then co-swept in
/// Vs order — the same sorted co-sweep as the sweep executor
/// (join/co_sweep.cc), run with a retention budget.
///
/// The sweep keeps the not-yet-expired ("active") tuples of both sides; an
/// arriving tuple joins against the opposite active set. Long-lived tuples
/// stay active long after their page has left the in-memory merge window,
/// so when a later arrival matches one, the algorithm *backs up*: it
/// physically re-reads that tuple's page (paper Section 4.3: a long-lived
/// tuple "must be joined with all tuples that overlap it, some of these
/// tuples may, unfortunately, have already been read, requiring the
/// algorithm to re-read these pages"). Each evicted page is re-read at
/// most once over the whole merge — its long-lived tuples are retained
/// from then on — and a page still in the window is never re-read, which
/// is why ample memory suppresses the effect and one-chronon workloads
/// never back up.
///
/// Buffer budget (buffer_pages total): the sort phases use all of it; the
/// merge phase allocates a multi-page read buffer per sorted stream, one
/// result page, and leaves the rest as the window. The window's bytes
/// bound the retained active tuples (each counted at its record length);
/// over budget the tuples with the latest end are evicted first — long-
/// lived tuples squeeze the window and increase back-ups, compounding
/// their cost.
///
/// Metrics: kSortIoOps (unweighted I/O count of the two sorts),
/// kBackupPageReads, kMaxActiveTuples, kActiveBucketEntriesPeak. Traced
/// as kSortMerge with nested sort r / sort s / merge sweep spans.
StatusOr<JoinRunStats> SortMergeBody(const NaturalJoinLayout& layout,
                                     StoredRelation* r, StoredRelation* s,
                                     StoredRelation* out,
                                     const ExecOptions& options,
                                     ExecContext* ctx);

/// Index-based evaluation of the valid-time natural join in the style of
/// the paper's related work [SG89, GS91]: both inputs are sorted by
/// interval start, an append-only tree is built over the inner, and each
/// outer page probes the tree to bound the inner page range it must scan
/// (widened below the start by the inner's maximum tuple duration — the
/// classic weakness of start-ordered temporal indexes with long-lived
/// tuples).
///
/// Charged I/O includes the sorts, the index build (node writes), every
/// probe's node reads (through a small pinned-node buffer pool) and the
/// inner data reads (through an LRU pool of `buffer_pages`). The
/// index-vs-partition ablation uses this executor to quantify the paper's
/// argument that the partition join "does not require sort orderings or
/// auxiliary access paths, each with additional update costs".
///
/// Metrics: kIndexNodePages, kIndexBuildIoOps, kSortIoOps,
/// kInnerPagesScanned. Traced as kIndexed with nested sort r / sort s /
/// index build / index probe spans; the node and data buffer pools are
/// registered so the probe span reports hit/miss deltas.
StatusOr<JoinRunStats> IndexedBody(const NaturalJoinLayout& layout,
                                   StoredRelation* r, StoredRelation* s,
                                   StoredRelation* out,
                                   const ExecOptions& options,
                                   ExecContext* ctx);

/// Endpoint-sorted sweep evaluation of the generalized temporal join,
/// after Piatov, Helmer, Dignös and Persia (arXiv 2008.12665): both
/// relations are externally sorted by (Vs, Ve) — the same sort prologue as
/// sort-merge, so the sort I/O is charged identically and is
/// thread-invariant — then joined in ONE forward sweep over the merged
/// arrival order. The sweep is sort-merge's co-sweep (join/co_sweep.cc)
/// without a retention budget: every active tuple stays in memory, so it
/// never backs up.
///
/// Each side keeps a *gapless append-only active map*: flat parallel
/// arrays (interval ends, tuples, pages, arrival numbers) plus hash
/// buckets of indices into them. Expired entries are swap-removed lazily
/// during probes and reclaimed from the arrays and the buckets by a global
/// compaction only when more than half of the append log is dead. An
/// arriving tuple probes the opposite map as a zero-copy TupleView and is
/// materialized exactly once, for emission and its own insertion.
///
/// Predicate support — the reason this executor exists — is the full
/// shared-chronon-or-adjacent family: any TemporalPredicate not containing
/// before/after. Emission is specialized per predicate class, chosen once
/// per run: the default overlap disjunction emits every live key match
/// unclassified; narrower chronon-sharing sets classify and test the mask;
/// sets with meets/met-by slacken the expiry bound by one chronon so an
/// entry ending one chronon before the sweep survives to meet its adjacent
/// partner.
///
/// Output is written in canonical order (ResultWriter::Canonical), so a
/// sweep run is byte-identical to the reference oracle — and to a
/// standalone run at any number of concurrent queries — for every
/// supported predicate. Result stamps come
/// from PredicateResultInterval (intersection, else span).
///
/// Metrics: kSortIoOps, kSweepActivePeak, kSweepAppends,
/// kSweepCompactions, kSweepProbeHits, kActiveBucketEntriesPeak,
/// kJoinPredicateMask (always set), kDecodeMaterializationsAvoided.
/// Traced as kSweepJoin with nested sort r / sort s / sweep pass spans.
StatusOr<JoinRunStats> SweepBody(const NaturalJoinLayout& layout,
                                 StoredRelation* r, StoredRelation* s,
                                 StoredRelation* out,
                                 const ExecOptions& options, ExecContext* ctx);

/// In-memory columnar radix evaluation of r |X|_v s.
///
/// Phases (each a span under the kRadixJoin root):
///   - radix_extract: one sequential page scan of each input (all charged
///     I/O of the run: 1 random + (pages-1) sequential per input, the same
///     charge as two ReadAll scans), pinning pages and extracting
///     join-key-hash / Vs / Ve columns into flat arrays
///     (relation/column_extract.h). The budget (ResolveRadixBudgetBytes)
///     is enforced incrementally; exceeding it aborts with
///     kResourceExhausted before anything is emitted.
///   - radix_partition: one stable counting sort groups s's rows by the
///     low bits of their key hash (a FlatIndex walked oldest first, so a
///     slot's rows stay in ascending s order).
///   - radix_probe: r's rows stream in input order, each probing its slot
///     with the shared cheap-first filters (ForEachFlatMatch: full hash,
///     interval overlap, predicate, then key equality on the record
///     bytes); every match is emitted at once.
///
/// Matches therefore come out in (r row, s row) order, the reference
/// join's r-outer/s-inner order, with no buffer and no sort — pages
/// byte-identical to the oracle's, and to a standalone run at any number
/// of concurrent queries, with identical charged IoStats. Every phase
/// runs on the calling thread.
///
/// Metrics: kRadixPasses, kRadixFanout, kRadixBuckets, kRadixRowsRouted,
/// kRadixEstFootprintBytes, kRadixActFootprintBytes, kRadixBudgetBytes.
StatusOr<JoinRunStats> RadixBody(const NaturalJoinLayout& layout,
                                 StoredRelation* r, StoredRelation* s,
                                 StoredRelation* out,
                                 const ExecOptions& options, ExecContext* ctx);

/// The partition executor's body (the public entry point is
/// PartitionVtJoin, core/partition_join.h, which runs this under the same
/// contract): the paper's Figure 2 pipeline for inner joins, and the one-
/// or two-pass coverage-tracking variant for the sequenced outer/anti
/// kinds, which require last-overlap placement.
///
/// Every phase (sampling, Grace partitioning, joinPartitions) runs on the
/// calling thread in the paper's order.
StatusOr<JoinRunStats> PartitionBody(const NaturalJoinLayout& layout,
                                     StoredRelation* r, StoredRelation* s,
                                     StoredRelation* out,
                                     const PartitionJoinOptions& options,
                                     ExecContext* ctx);

}  // namespace tempo

#endif  // TEMPO_SERVICE_EXECUTOR_BODIES_H_
