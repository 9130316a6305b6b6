#include "core/radix_join.h"

#include <limits>
#include <utility>

#include "common/env.h"
#include "join/build_area.h"

namespace tempo {

uint64_t ResolveRadixBudgetBytes(const ExecOptions& options) {
  if (options.radix_budget_bytes > 0) return options.radix_budget_bytes;
  // Fallback 0 = "unset": fall through to the buffer-derived default
  // (also what a rejected malformed value resolves to, after the parser's
  // warning).
  const uint64_t mb =
      EnvStrictUint64("TEMPO_RADIX_THRESHOLD_MB", 0,
                      std::numeric_limits<uint64_t>::max() >> 20);
  if (mb > 0) return mb << 20;
  return static_cast<uint64_t>(options.buffer_pages) * kPageSize;
}

uint64_t EstimateRadixFootprintBytes(uint32_t pages_r, uint32_t pages_s) {
  return (static_cast<uint64_t>(pages_r) + pages_s) * kPageSize;
}

namespace {

/// Sequential page scan + column extraction of one input, with the memory
/// budget enforced after every page: `used_bytes` accumulates across both
/// sides, so the abort happens mid-extract at the first page that pushes
/// the combined exact footprint past the budget.
Status ExtractSide(StoredRelation* rel, ColumnExtractor* extractor,
                   uint64_t budget_bytes, uint64_t other_side_bytes) {
  const uint32_t pages = rel->num_pages();
  for (uint32_t p = 0; p < pages; ++p) {
    TEMPO_ASSIGN_OR_RETURN(PagePin page, rel->PinPage(p));
    TEMPO_RETURN_IF_ERROR(extractor->AddPage(std::move(page)).status());
    const uint64_t used = other_side_bytes + extractor->footprint_bytes();
    if (used > budget_bytes) {
      return Status::ResourceExhausted(
          "radix join footprint " + std::to_string(used) +
          " B exceeds budget " + std::to_string(budget_bytes) +
          " B after page " + std::to_string(p) + " of " + rel->name());
    }
  }
  return Status::OK();
}

}  // namespace

// Declared in service/executor_bodies.h; runs under RunJoinContract.
StatusOr<JoinRunStats> RadixBody(const NaturalJoinLayout& layout,
                                 StoredRelation* r, StoredRelation* s,
                                 StoredRelation* out,
                                 const ExecOptions& options, ExecContext* ctx) {
  JoinRunStats stats;
  const uint64_t budget = ResolveRadixBudgetBytes(options);
  const uint64_t est =
      EstimateRadixFootprintBytes(r->num_pages(), s->num_pages());
  stats.Set(Metric::kRadixBudgetBytes, static_cast<double>(budget));
  stats.Set(Metric::kRadixEstFootprintBytes, static_cast<double>(est));

  TraceSpan root = SpanIf(ctx, Phase::kRadixJoin);

  // --- radix_extract: the run's only charged I/O -------------------------
  ColumnExtractor r_extract(&r->schema(), &layout.r_join_attrs);
  ColumnExtractor s_extract(&s->schema(), &layout.s_join_attrs);
  {
    TraceSpan extract_span = SpanIf(ctx, Phase::kRadixExtract);
    Status st = ExtractSide(r, &r_extract, budget, 0);
    if (st.ok()) {
      st = ExtractSide(s, &s_extract, budget, r_extract.footprint_bytes());
    }
    if (!st.ok()) {
      // Surface how far extraction got before the abort, so EXPLAIN can
      // show the fallback decision even though no stats are returned.
      SetMetric(ctx, Metric::kRadixBudgetBytes, static_cast<double>(budget));
      SetMetric(ctx, Metric::kRadixEstFootprintBytes,
                static_cast<double>(est));
      SetMetric(ctx, Metric::kRadixActFootprintBytes,
                static_cast<double>(r_extract.footprint_bytes() +
                                    s_extract.footprint_bytes()));
      return st;
    }
  }
  const uint64_t actual =
      r_extract.footprint_bytes() + s_extract.footprint_bytes();
  stats.Set(Metric::kRadixActFootprintBytes, static_cast<double>(actual));

  // --- radix_partition: group s by the low bits of its key hash ----------
  // One stable counting sort (FlatIndex); within a slot, s rows stay in
  // ascending order.
  FlatIndex s_index;
  {
    TraceSpan part_span = SpanIf(ctx, Phase::kRadixPartition);
    s_index.Build(s_extract, 0, s_extract.num_rows(),
                  FlatIndex::Walk::kOldestFirst);
  }
  const size_t s_rows = s_extract.num_rows();
  stats.Set(Metric::kRadixPasses, s_rows == 0 ? 0 : 1);
  stats.Set(Metric::kRadixFanout, static_cast<double>(s_index.num_slots()));
  stats.Set(Metric::kRadixBuckets,
            static_cast<double>(s_index.occupied_slots()));
  stats.Set(Metric::kRadixRowsRouted, static_cast<double>(s_rows));

  // --- radix_probe: stream r in input order, emit inline -----------------
  // r rows in order, each one's s matches in ascending s order: exactly
  // the reference join's r-outer/s-inner emission order, so no match is
  // buffered or sorted. The index holds s, so the predicate is tested on
  // (s, r) through its converse.
  {
    TraceSpan probe_span = SpanIf(ctx, Phase::kRadixProbe);
    const TemporalPredicate predicate = options.predicate.Converse();
    ResultWriter writer(out);
    Status status = Status::OK();
    for (size_t row = 0; row < r_extract.num_rows(); ++row) {
      const TupleView& x = r_extract.view(row);
      ForEachFlatMatch(s_extract, s_index, x, r_extract.key_hash(row),
                       Interval(r_extract.start(row), r_extract.end(row)),
                       layout.r_join_attrs, predicate, /*dedup=*/nullptr,
                       [&](size_t s_row, const Interval& overlap) {
                         if (!status.ok()) return;
                         status = writer.Emit(layout, x,
                                              s_extract.view(s_row), overlap);
                       });
      TEMPO_RETURN_IF_ERROR(status);
    }
    TEMPO_RETURN_IF_ERROR(writer.Finish());
    stats.output_tuples = writer.count();
  }

  return stats;
}

}  // namespace tempo
