#ifndef TEMPO_JOIN_NESTED_LOOP_JOIN_H_
#define TEMPO_JOIN_NESTED_LOOP_JOIN_H_

#include "join/join_common.h"

namespace tempo {

/// Closed-form I/O cost of the nested-loop executor (a block nested loop:
/// r read once in blocks of buffSize - 2 pages, s scanned in full per
/// block), excluding result output.
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
