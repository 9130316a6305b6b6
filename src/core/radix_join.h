#ifndef TEMPO_CORE_RADIX_JOIN_H_
#define TEMPO_CORE_RADIX_JOIN_H_

#include "join/join_common.h"
#include "relation/column_extract.h"

namespace tempo {

/// Resolves the in-memory footprint budget the radix path may pin,
/// by precedence:
///   1. options.radix_budget_bytes, when non-zero;
///   2. TEMPO_RADIX_THRESHOLD_MB (strictly parsed; malformed values are
///      rejected with a warning naming the bad value), when set;
///   3. buffer_pages * kPageSize — the paper's buffSize, expressed in
///      bytes: by default the fast path may hold exactly the memory the
///      buffer pool grants the algorithm.
uint64_t ResolveRadixBudgetBytes(const ExecOptions& options);

/// Planner-side footprint estimate: the page bytes of both inputs. This is
/// deliberately optimistic — the exact per-row column/view overhead
/// (kColumnRowBytes) is only known once extraction counts rows — so the
/// estimate errs toward trying the fast path, and the radix executor
/// (JoinExecutor::kInMemoryRadix) enforces the budget exactly, page by
/// page, during extraction; RunJoin's planned (kAuto) path falls back to
/// the paged Grace join on kResourceExhausted.
uint64_t EstimateRadixFootprintBytes(uint32_t pages_r, uint32_t pages_s);

}  // namespace tempo

#endif  // TEMPO_CORE_RADIX_JOIN_H_
