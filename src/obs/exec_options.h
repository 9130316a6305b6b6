#ifndef TEMPO_OBS_EXEC_OPTIONS_H_
#define TEMPO_OBS_EXEC_OPTIONS_H_

#include <cstdint>

#include "storage/io_accountant.h"
#include "temporal/temporal_predicate.h"

namespace tempo {

/// The sequenced join variants a request may name. kInner is the paper's
/// valid-time natural join; the outer and anti variants additionally emit,
/// for every input tuple of the preserved side(s), the *uncovered
/// subintervals* of its validity — the portions of its interval not
/// overlapped by any key-matching partner — computed with the
/// IntervalSet difference arithmetic (src/temporal/interval_set.h):
///
///   kLeftOuter  — matches plus unmatched r subintervals, s-only
///                 attributes padded with NULLs;
///   kFullOuter  — matches plus unmatched subintervals of both sides,
///                 the other side's private attributes padded with NULLs;
///   kAnti       — *only* the unmatched r subintervals, in r's own schema
///                 (no padding; the sequenced NOT EXISTS).
///
/// Only the partition executor and the reference oracle evaluate the
/// non-inner kinds; their output is emitted in the canonical sequenced
/// result order (sorted serialized records) so an executor run is
/// byte-identical to the oracle's, and to a standalone run at any number
/// of concurrent queries.
enum class JoinKind : uint8_t {
  kInner = 0,
  kLeftOuter = 1,
  kFullOuter = 2,
  kAnti = 3,
};

inline const char* JoinKindName(JoinKind k) {
  switch (k) {
    case JoinKind::kInner:
      return "inner";
    case JoinKind::kLeftOuter:
      return "left-outer";
    case JoinKind::kFullOuter:
      return "full-outer";
    case JoinKind::kAnti:
      return "anti";
  }
  return "?";
}

/// The options every join executor shares: JoinRequest::options, the
/// planner and every executor take it as is. Only the partition executor
/// has knobs beyond it (PartitionJoinOptions, set by callers of the public
/// PartitionVtJoin).
struct ExecOptions {
  /// Buffer pages available to the algorithm (the paper's M).
  uint32_t buffer_pages = 2048;

  /// Random/sequential weights for cost formulas (the paper's default
  /// 5:1 trial ratio).
  CostModel cost_model = CostModel::Ratio(5.0);

  /// Seed for sampling and any randomized placement decisions.
  uint64_t seed = 42;

  // Threading has no knob: every phase of a run executes on the calling
  // thread in the paper's order (DESIGN.md §4c).

  /// Which sequenced join variant to evaluate. Which (executor, kind,
  /// predicate) combinations are admissible is enforced centrally by
  /// ValidateExecOptions (src/service/join_request.h) — e.g. non-inner
  /// kinds are only accepted by the partition executor and the reference
  /// oracle, and require the default overlap predicate.
  JoinKind join_kind = JoinKind::kInner;

  /// The temporal matching condition: a disjunction of Allen relations.
  /// Defaults to `overlap`, the valid-time natural join's condition.
  /// Predicates whose relations all imply a shared chronon run on any
  /// executor; adjacency predicates (meets/met-by) need the sweep
  /// executor; predicates containing before/after only run on the
  /// reference oracle. See ValidateExecOptions.
  TemporalPredicate predicate;

  /// In-memory footprint budget (bytes) for the columnar radix fast path.
  /// 0 resolves at run time: TEMPO_RADIX_THRESHOLD_MB when set (strictly
  /// parsed), else buffer_pages * kPageSize — i.e. by default the radix
  /// path may pin exactly the memory the paper's buffSize grants the
  /// algorithm. See ResolveRadixBudgetBytes (core/radix_join.h).
  uint64_t radix_budget_bytes = 0;
};

}  // namespace tempo

#endif  // TEMPO_OBS_EXEC_OPTIONS_H_
