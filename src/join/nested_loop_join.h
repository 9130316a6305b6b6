#ifndef TEMPO_JOIN_NESTED_LOOP_JOIN_H_
#define TEMPO_JOIN_NESTED_LOOP_JOIN_H_

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
/// Metrics in JoinRunStats: kOuterBlocks. With a non-null `ctx`, the run
/// is traced as one kNestedLoop span.
StatusOr<JoinRunStats> NestedLoopVtJoin(StoredRelation* r, StoredRelation* s,
                                        StoredRelation* out,
                                        const ExecOptions& options,
                                        ExecContext* ctx = nullptr);

/// Closed-form I/O cost of NestedLoopVtJoin, excluding result output.
/// Under HeadModel::kPerFile, the outer is one sequential pass (1 random +
/// (pages_r - 1) sequential) and each of the `blocks` inner scans costs
/// 1 random + (pages_s - 1) sequential. Under kSingleHead each outer block
/// additionally reseeks (blocks random + pages_r - blocks sequential).
/// Matches the executor exactly when the result relation is uncharged.
double NestedLoopAnalyticCost(uint32_t pages_r, uint32_t pages_s,
                              uint32_t buffer_pages, const CostModel& model,
                              HeadModel head_model = HeadModel::kPerFile);

}  // namespace tempo

#endif  // TEMPO_JOIN_NESTED_LOOP_JOIN_H_
