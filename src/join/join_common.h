#ifndef TEMPO_JOIN_JOIN_COMMON_H_
#define TEMPO_JOIN_JOIN_COMMON_H_

#include <cstdint>
#include <string>
#include <unordered_map>
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

/// Same, with a zero-copy probe-side record: y's values are materialized
/// straight from the record bytes into the result — the only point on the
/// probe hot path where owning Values are created.
Tuple MakeJoinTuple(const NaturalJoinLayout& layout, const Tuple& x,
                    const TupleView& y, const Interval& overlap);

/// Appends the serialized result record of the valid-time natural join of
/// two zero-copy records to `*out`: the overlap interval, a fresh NULL
/// bitmap, then each output attribute's payload bytes copied from x or y.
/// The bytes equal MakeJoinTuple(...).SerializeTo.
void AppendJoinRecord(const NaturalJoinLayout& layout, const TupleView& x,
                      const TupleView& y, const Interval& overlap,
                      std::string* out);

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

/// Buffered writer appending join results to an output relation. The
/// output page is the paper's dedicated result buffer page (Figure 3).
///
/// Canonical mode (the sequenced outer/anti variants): emitted tuples are
/// buffered as serialized records and appended in lexicographic byte order
/// at Finish(). Serialization is canonical, so two runs producing the same
/// result *multiset* — the partition variant, alone or beside other
/// queries, and the brute-force oracle — write byte-identical output
/// pages, which is what the parity tests assert. The buffering trades the
/// streaming result page for exact verifiability; all output I/O is still charged identically
/// (same bytes, same page count) regardless of emission order.
class ResultWriter {
 public:
  explicit ResultWriter(StoredRelation* out) : out_(out) {}

  /// A writer that defers appends and sorts the serialized records at
  /// Finish() — the canonical sequenced result order.
  static ResultWriter Canonical(StoredRelation* out) {
    ResultWriter w(out);
    w.canonical_ = true;
    return w;
  }

  /// Both sides zero-copy, as every executor emits a match: the result
  /// record is assembled by AppendJoinRecord, so no Tuple or Value is
  /// built.
  Status Emit(const NaturalJoinLayout& layout, const TupleView& x,
              const TupleView& y, const Interval& overlap);

  /// Appends an already-assembled result tuple.
  Status EmitAssembled(const Tuple& t) {
    record_.clear();
    t.SerializeTo(out_->schema(), &record_);
    return EmitSerialized(record_);
  }

  /// Streaming mode: flushes the partial output page. Canonical mode:
  /// sorts the buffered records, appends them all, then flushes.
  Status Finish();

  /// Number of successfully emitted result tuples; a failed Append is
  /// not counted.
  uint64_t count() const { return count_; }

 private:
  /// Appends (streaming) or buffers (canonical) one serialized result
  /// record.
  Status EmitSerialized(std::string_view record);

  StoredRelation* out_;
  uint64_t count_ = 0;
  bool canonical_ = false;
  std::vector<std::string> buffered_;
  std::string record_;  // assembly scratch, reused across emits
};

/// An in-memory equi-hash index over owning tuples, keyed on a subset of
/// attribute positions, for callers that already hold decoded tuples (the
/// sequenced query layer, the algebra operators, the materialized view).
/// The paged executors build over records instead (join/build_area.h),
/// with the same match order.
class HashedTupleIndex {
 public:
  /// Builds over `tuples` (kept by pointer; caller owns) using key
  /// positions `key_attrs`.
  HashedTupleIndex(const std::vector<Tuple>* tuples,
                   const std::vector<size_t>* key_attrs);

  /// Re-binds to a new tuple vector (same key positions) and rebuilds.
  void Rebuild(const std::vector<Tuple>* tuples);

  /// Invokes `fn(const Tuple&)` for each indexed tuple equal to `probe` on
  /// the aligned key positions `probe_attrs`.
  template <typename Fn>
  void ForEachMatch(const Tuple& probe, const std::vector<size_t>& probe_attrs,
                    Fn&& fn) const {
    size_t h = probe.HashAttrs(probe_attrs);
    auto [lo, hi] = buckets_.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      const Tuple& candidate = (*tuples_)[it->second];
      if (candidate.EqualOnAttrs(*key_attrs_, probe_attrs, probe)) {
        fn(candidate);
      }
    }
  }

  /// Zero-copy probe: hashes and compares the key directly on the probe
  /// record's bytes, and passes each match with its index into the bound
  /// tuple vector, `fn(const Tuple&, size_t)`.
  /// TupleView's hash is bit-compatible with Tuple::HashAttrs, so the
  /// bucket walk — and hence match order — is identical to probing with
  /// the materialized tuple.
  template <typename Fn>
  void ForEachMatchIndexed(const TupleView& probe,
                           const std::vector<size_t>& probe_attrs,
                           Fn&& fn) const {
    size_t h = probe.HashAttrs(probe_attrs);
    auto [lo, hi] = buckets_.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      const Tuple& candidate = (*tuples_)[it->second];
      if (probe.EqualOnAttrs(probe_attrs, *key_attrs_, candidate)) {
        fn(candidate, it->second);
      }
    }
  }

 private:
  const std::vector<Tuple>* tuples_;
  const std::vector<size_t>* key_attrs_;
  std::unordered_multimap<size_t, size_t> buckets_;
};

/// The schema a join of kind `kind` writes: r's own schema for kAnti (the
/// anti join pads nothing), the natural-join output schema otherwise.
inline const Schema& JoinOutputSchema(const Schema& r_schema,
                                      const NaturalJoinLayout& layout,
                                      JoinKind kind) {
  return kind == JoinKind::kAnti ? r_schema : layout.output;
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
