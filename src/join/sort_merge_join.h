#ifndef TEMPO_JOIN_SORT_MERGE_JOIN_H_
#define TEMPO_JOIN_SORT_MERGE_JOIN_H_

#include "join/join_common.h"

namespace tempo {

/// Sort-merge evaluation of the valid-time natural join [SG89, LM90 style]:
/// both relations are externally sorted on interval start, then co-swept in
/// Vs order.
///
/// The sweep keeps the not-yet-expired ("active") tuples of both sides; an
/// arriving tuple joins against the opposite active set. Long-lived tuples
/// stay active long after their page has left the in-memory merge window,
/// so when a later arrival matches one, the algorithm *backs up*: it
/// physically re-reads that tuple's page (paper Section 4.3: a long-lived
/// tuple "must be joined with all tuples that overlap it, some of these
/// tuples may, unfortunately, have already been read, requiring the
/// algorithm to re-read these pages"). Re-reads are batched per (arrival
/// page, old page) pair — one back-up read serves every match between the
/// two pages — and are unnecessary while the old page is still in the
/// window, which is why ample memory suppresses the effect and one-chronon
/// workloads never back up.
///
/// Buffer budget (buffer_pages total): the sort phases use all of it; the
/// merge phase allocates a multi-page read buffer per sorted stream, one
/// result page, and leaves the rest as the window. Memory held by active
/// tuples is charged against the window, shrinking it — long-lived tuples
/// squeeze the window and increase back-ups, compounding their cost.
///
/// Metrics in JoinRunStats: kSortIoOps (unweighted I/O count of the two
/// sorts), kBackupPageReads, kMaxActiveTuples. With a non-null `ctx`, the
/// run is traced as kSortMerge with nested sort r / sort s / merge sweep
/// spans.
StatusOr<JoinRunStats> SortMergeVtJoin(StoredRelation* r, StoredRelation* s,
                                       StoredRelation* out,
                                       const ExecOptions& options,
                                       ExecContext* ctx = nullptr);

}  // namespace tempo

#endif  // TEMPO_JOIN_SORT_MERGE_JOIN_H_
