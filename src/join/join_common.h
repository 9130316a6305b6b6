#ifndef TEMPO_JOIN_JOIN_COMMON_H_
#define TEMPO_JOIN_JOIN_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "obs/exec_context.h"
#include "obs/exec_options.h"
#include "obs/metrics.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "relation/tuple_view.h"
#include "storage/io_accountant.h"
#include "storage/page_arena.h"
#include "storage/stored_relation.h"

namespace tempo {

/// Execution report of one join run. Executor-specific counters are typed:
/// a MetricsRegistry over the declared Metric enum, so every counter a run
/// can report is declared in obs/metrics.h with unit, owner and doc string.
struct JoinRunStats {
  IoStats io;                ///< charged I/O performed by the executor
  uint64_t output_tuples = 0;

  /// Typed executor counters; every key is declared in obs/metrics.h with
  /// unit, owner and doc string.
  MetricsRegistry metrics;

  /// Weighted cost of the run under `model`.
  double Cost(const CostModel& model) const { return io.Cost(model); }

  void Set(Metric m, double value) { metrics.Set(m, value); }

  /// Adds `delta` to a metric (unset counts as zero).
  void Add(Metric m, double delta) { metrics.Add(m, delta); }

  double Get(Metric m) const { return metrics.Get(m); }
  bool Has(Metric m) const { return metrics.Has(m); }
};

/// Copies a run's typed metrics into the run's ExecContext (no-op on a
/// null context), so EXPLAIN ANALYZE can print the registry next to the
/// span tree. Join runs export exactly once, in RunJoinContract
/// (join/join_executor.h).
inline void ExportMetrics(const JoinRunStats& stats, ExecContext* ctx) {
  if (ctx != nullptr) ctx->metrics().Merge(stats.metrics);
}

/// Emission-site filter for pairs already known to share a chronon: the
/// default overlap predicate accepts unconditionally; any narrower
/// overlap-family predicate classifies the pair and tests the mask.
inline bool PredicateAdmitsOverlapping(const TemporalPredicate& pred,
                                       const Interval& x, const Interval& y) {
  if (pred.IsOverlapDefault()) return true;
  return pred.Test(ClassifyAllen(x, y));
}

/// Assembles the result tuple of the valid-time natural join (paper
/// Section 2): explicit values A (shared), B (r-only), C (s-only), stamped
/// with the overlap of the input intervals. `overlap` must be the
/// (non-empty) intersection of x and y's intervals.
Tuple MakeJoinTuple(const NaturalJoinLayout& layout, const Tuple& x,
                    const Tuple& y, const Interval& overlap);

/// Assembles a NULL-padded unmatched row of a sequenced *outer* join in
/// the join output schema (A, B, C): when `preserved_is_r`, A and B come
/// from the r-side tuple `x` and every C attribute is NULL; otherwise A
/// and C come from the s-side tuple `x` (read through the pairwise-aligned
/// s positions) and every B attribute is NULL. `uncovered` must be a
/// subinterval of x's validity not overlapped by any key-matching partner.
Tuple MakeUnmatchedTuple(const NaturalJoinLayout& layout, bool preserved_is_r,
                         const Tuple& x, const Interval& uncovered);

/// The anti join's unmatched row: `x` itself (r's own schema, no padding)
/// restricted to the uncovered subinterval.
Tuple MakeAntiTuple(const Tuple& x, const Interval& uncovered);

/// Writer appending join results, in the executor's emission order, to an
/// output relation through its one output page: the paper's dedicated
/// result buffer page (Figure 3).
class ResultWriter {
 public:
  explicit ResultWriter(StoredRelation* out) : out_(out) {}

  /// Both sides zero-copy, as every executor emits a match. The result
  /// record — the overlap interval, a fresh NULL bitmap, then the payloads
  /// of A and B from x and of C from y — is sized from the two views and
  /// written straight into its place in the output page, each run of
  /// consecutive source attributes with one copy. No Tuple or Value is
  /// built, and the bytes equal MakeJoinTuple(...).SerializeTo. An
  /// oversize result fails with InvalidArgument before anything is
  /// written.
  Status Emit(const NaturalJoinLayout& layout, const TupleView& x,
              const TupleView& y, const Interval& overlap);

  /// Appends an already-assembled result tuple.
  Status EmitAssembled(const Tuple& t) {
    TEMPO_RETURN_IF_ERROR(out_->Append(t));
    ++count_;
    return Status::OK();
  }

  /// Flushes the partial output page.
  Status Finish() { return out_->Flush(); }

  /// Number of successfully emitted result tuples; a failed Append is
  /// not counted.
  uint64_t count() const { return count_; }

 private:
  StoredRelation* out_;
  uint64_t count_ = 0;
  std::vector<std::string_view> runs_;  // Emit's payload runs, reused
};

/// The schema a join of kind `kind` writes: r's own schema for kAnti (the
/// anti join pads nothing), the natural-join output schema otherwise.
inline const Schema& JoinOutputSchema(const Schema& r_schema,
                                      const NaturalJoinLayout& layout,
                                      JoinKind kind) {
  return kind == JoinKind::kAnti ? r_schema : layout.output;
}

/// Sort-merge's merge-phase buffer layout. Each sorted stream gets a
/// multi-page read buffer so its refills are mostly sequential; an eighth
/// of the budget each leaves the bulk of memory to the window and active
/// maps.
inline uint32_t StreamChunkPages(uint32_t buffer_pages) {
  return std::max<uint32_t>(1, buffer_pages / 8);
}

/// The merge window: buffSize less one result page and the two stream
/// buffers. Its bytes bound the active tuples sort-merge retains.
inline uint32_t MergeWindowPages(uint32_t buffer_pages) {
  const uint32_t streams = 2 * StreamChunkPages(buffer_pages);
  return buffer_pages > streams + 1 ? buffer_pages - streams - 1 : 1;
}

/// Checks the inputs of one join run — all three relations present,
/// inputs flushed, and `out` carrying JoinOutputSchema — and returns the
/// natural-join layout of (r, s). The first step of RunJoinContract.
StatusOr<NaturalJoinLayout> PrepareJoinForKind(StoredRelation* r,
                                               StoredRelation* s,
                                               StoredRelation* out,
                                               JoinKind kind);

}  // namespace tempo

#endif  // TEMPO_JOIN_JOIN_COMMON_H_
