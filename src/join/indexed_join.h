#ifndef TEMPO_JOIN_INDEXED_JOIN_H_
#define TEMPO_JOIN_INDEXED_JOIN_H_

#include "join/append_only_tree.h"
#include "join/join_common.h"

namespace tempo {

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
/// index-vs-partition ablation uses this executor to quantify the
/// paper's argument that the partition join "does not require sort
/// orderings or auxiliary access paths, each with additional update
/// costs".
///
/// Metrics in JoinRunStats: kIndexNodePages, kIndexBuildIoOps, kSortIoOps,
/// kInnerPagesScanned. With a non-null `ctx`, the run is traced as
/// kIndexed with nested sort r / sort s / index build / index probe
/// spans, and the node and data buffer pools are registered so the probe
/// span reports hit/miss deltas.
StatusOr<JoinRunStats> IndexedVtJoin(StoredRelation* r, StoredRelation* s,
                                     StoredRelation* out,
                                     const ExecOptions& options,
                                     ExecContext* ctx = nullptr);

}  // namespace tempo

#endif  // TEMPO_JOIN_INDEXED_JOIN_H_
