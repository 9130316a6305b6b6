#include "core/partition_join.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "core/tuple_cache.h"
#include "join/flat_index.h"
#include "join/join_executor.h"
#include "temporal/interval_set.h"

namespace tempo {

namespace {

constexpr size_t kPagePayload = kPageSize - 4;

/// Emits the uncovered subintervals of a retiring outer-area row:
/// SubtractAll of the accumulated coverage from the row's validity, one
/// output row per uncovered subinterval. Anti rows carry x itself (r's own
/// schema); outer rows are NULL-padded into the join schema. A Tuple is
/// materialised only for a row that has something uncovered.
Status EmitUncovered(JoinVariant* v, const TupleView& x,
                     const std::vector<Interval>& covered) {
  const IntervalSet uncovered = SubtractAll(x.interval(), covered);
  if (uncovered.empty()) return Status::OK();
  ++v->unmatched_tuples;
  const Tuple owned = x.Materialize();
  for (const Interval& iv : uncovered.intervals()) {
    ++v->uncovered_subintervals;
    Tuple t = v->kind == JoinKind::kAnti
                  ? MakeAntiTuple(owned, iv)
                  : MakeUnmatchedTuple(*v->emit_layout, v->preserved_is_r,
                                       owned, iv);
    TEMPO_RETURN_IF_ERROR(v->writer->EmitAssembled(t));
  }
  return Status::OK();
}

/// The outer partition area: a ColumnExtractor (pinned pages and purge
/// survivors, plus byte accounting) with a FlatIndex over its current
/// contents. The index tracks a dirty flag so a partition that neither
/// purged nor added rows (an empty r_i under migration) skips the rebuild.
///
/// Under a sequenced outer/anti variant the area additionally carries, per
/// row, the intervals its key-matching partners covered; a row leaving the
/// area (purge, or RetireAll at the end of the run) passes through
/// EmitUncovered before being dropped.
class OuterArea {
 public:
  OuterArea(const Schema* schema, const std::vector<size_t>* key_attrs)
      : area_(schema, key_attrs) {}

  /// Turns on per-row coverage tracking and unmatched emission.
  void TrackCoverage(JoinVariant* variant) { variant_ = variant; }

  Status Clear() {
    if (variant_ != nullptr) TEMPO_RETURN_IF_ERROR(RetireAll());
    if (area_.num_rows() != 0) dirty_ = true;
    area_.Clear();
    coverage_.clear();
    return Status::OK();
  }

  Status PurgeNotOverlapping(const Interval& p) {
    size_t kept = 0;
    TEMPO_RETURN_IF_ERROR(area_.PurgeNotOverlapping(
        p, [&](size_t row, bool keep) -> Status {
          if (keep) {
            if (variant_ != nullptr && kept != row) {
              coverage_[kept] = std::move(coverage_[row]);
            }
            ++kept;
            return Status::OK();
          }
          dirty_ = true;
          if (variant_ == nullptr) return Status::OK();
          return EmitUncovered(variant_, area_.view(row), coverage_[row]);
        }));
    if (variant_ != nullptr) coverage_.resize(kept);
    return Status::OK();
  }

  /// Retires every remaining row (end of the partition loop): emits each
  /// one's uncovered subintervals.
  Status RetireAll() {
    if (variant_ == nullptr) return Status::OK();
    for (size_t row = 0; row < area_.num_rows(); ++row) {
      TEMPO_RETURN_IF_ERROR(
          EmitUncovered(variant_, area_.view(row), coverage_[row]));
    }
    coverage_.assign(area_.num_rows(), {});
    return Status::OK();
  }

  Status AddPage(PagePin page) {
    TEMPO_ASSIGN_OR_RETURN(const size_t added, area_.AddPage(std::move(page)));
    if (added != 0) dirty_ = true;
    if (variant_ != nullptr) coverage_.resize(area_.num_rows());
    return Status::OK();
  }

  /// Folds one key-matching overlap into area row `row`'s coverage.
  void AddCoverage(size_t row, const Interval& overlap) {
    coverage_[row].push_back(overlap);
  }

  /// Rebuilds the probe index if the area changed since the last rebuild.
  void RebuildIndex() {
    if (!dirty_) return;
    index_.Build(area_, 0, area_.num_rows());
    dirty_ = false;
  }

  const ColumnExtractor& area() const { return area_; }
  const FlatIndex& index() const { return index_; }

 private:
  ColumnExtractor area_;
  FlatIndex index_;
  // The index starts empty over an empty area, so it starts clean.
  bool dirty_ = false;
  // Non-null while a sequenced outer/anti variant is running; coverage_
  // then parallels the area's rows (the raw overlap intervals seen so far).
  JoinVariant* variant_ = nullptr;
  std::vector<std::vector<Interval>> coverage_;
};

/// joinPartitions proper (see JoinPartitions) over one file per partition:
/// `r_parts[i]` and `s_parts[i]` hold r_i and s_i. A plan of one partition
/// passes r and s themselves.
StatusOr<JoinRunStats> JoinPartitionFiles(
    const NaturalJoinLayout& layout, const PartitionSpec& spec,
    const std::vector<StoredRelation*>& r_parts,
    const std::vector<StoredRelation*>& s_parts, StoredRelation* out,
    uint32_t buffer_pages, PlacementPolicy placement,
    TemporalPredicate predicate, uint32_t cache_memory_pages,
    ExecContext* ctx, JoinVariant* variant) {
  const size_t n = spec.num_partitions();
  if (r_parts.size() != n || s_parts.size() != n) {
    return Status::InvalidArgument(
        "partitioned relations do not match the partition spec");
  }
  if (buffer_pages < 4) {
    return Status::InvalidArgument(
        "joinPartitions needs at least 4 buffer pages");
  }
  Disk* disk = out->disk();
  IoAccountant& acct = disk->accountant();
  IoStats before = acct.stats();
  TraceSpan join_span = SpanIf(ctx, Phase::kJoinPartitions);

  // A spec always holds at least one partition.
  const Schema& r_schema = r_parts[0]->schema();
  const Schema& s_schema = s_parts[0]->schema();
  if (cache_memory_pages == 0) cache_memory_pages = 1;
  // Figure 3 layout: one inner page, one result page, cache_memory_pages
  // for the tuple cache (normally 1), and the rest is partition area.
  const uint32_t reserved = 2 + cache_memory_pages;
  const size_t area_bytes =
      static_cast<size_t>(
          buffer_pages > reserved ? buffer_pages - reserved : 1) *
      kPagePayload;
  const bool migrate = placement == PlacementPolicy::kLastOverlap;

  // Variant passes share the caller's writer (the full outer feeds two
  // passes into one writer); the caller finishes it.
  ResultWriter local_writer(out);
  ResultWriter* writer = variant != nullptr ? variant->writer : &local_writer;
  const bool emit = variant == nullptr || variant->emit_matches;
  const std::vector<size_t>& keys = layout.s_join_attrs;
  OuterArea outer(&r_schema, &layout.r_join_attrs);
  if (variant != nullptr) outer.TrackCoverage(variant);
  TupleCache cache(disk, s_schema, out->name() + ".gen",
                   cache_memory_pages);  // consumed generation
  uint64_t cache_pages_spilled = 0;
  uint64_t cache_tuples = 0;
  uint64_t overflow_chunks = 0;

  // Computation proceeds from r_n |X| s_n down to r_1 |X| s_1, serially:
  // partition i's cache generation feeds partition i-1, and each
  // partition's probe runs inline with its page reads, in the paper's
  // order.
  for (size_t ii = n; ii-- > 0;) {
    const Interval& p_i = spec.partition(ii);
    const bool has_prev = ii > 0;
    const Interval* p_prev = has_prev ? &spec.partition(ii - 1) : nullptr;

    // 1. Purge retained outer tuples that do not overlap p_i, then read
    //    the physical partition r_i into the area.
    if (migrate) {
      TEMPO_RETURN_IF_ERROR(outer.PurgeNotOverlapping(p_i));
    } else {
      // Replicated partitions are self-contained (variants require
      // last-overlap placement, so no coverage retires here).
      TEMPO_RETURN_IF_ERROR(outer.Clear());
    }
    for (uint32_t p = 0; p < r_parts[ii]->num_pages(); ++p) {
      TEMPO_ASSIGN_OR_RETURN(PagePin page, r_parts[ii]->PinPage(p));
      TEMPO_RETURN_IF_ERROR(outer.AddPage(std::move(page)));
    }

    // Overflow handling: process the outer area in memory-sized chunks;
    // each chunk beyond the first re-reads the inner inputs (thrashing).
    const size_t total = outer.area().num_rows();
    size_t chunk_tuples = total;
    if (outer.area().bytes() > area_bytes && total > 0) {
      double avg = static_cast<double>(outer.area().bytes()) / total;
      chunk_tuples = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(area_bytes) / avg));
    }

    TupleCache next_gen(disk, s_schema,
                        out->name() + ".gen" + std::to_string(ii),
                        cache_memory_pages);

    for (size_t chunk_start = 0; chunk_start < std::max<size_t>(total, 1);
         chunk_start += std::max<size_t>(chunk_tuples, 1)) {
      const bool first_chunk = chunk_start == 0;
      if (!first_chunk) ++overflow_chunks;
      // Chunk view: index the area rows [chunk_start, chunk_end) in place.
      const FlatIndex* index = &outer.index();
      FlatIndex chunk_index;
      if (chunk_tuples < total) {
        size_t chunk_end = std::min(total, chunk_start + chunk_tuples);
        chunk_index.Build(outer.area(), chunk_start, chunk_end);
        index = &chunk_index;
      } else {
        outer.RebuildIndex();  // no-op when the area is unchanged
      }

      // Probes views over storage that outlives the call (a pinned page,
      // or the tuple cache's in-memory records) against the chunk. Emits
      // every area row each probe record `y` joins, in FlatIndex order
      // (deterministic for a fixed index build), keeping only overlaps
      // that end in p_i (the dedup rule) and folding each into the matched
      // row's coverage under a variant; then, if `retain`, keeps `y` for
      // the next cache generation when it overlaps p_{i-1}. The probe
      // kernel runs both steps in the order of a record-at-a-time loop, so
      // the writer and the cache see the same sequence.
      auto probe = [&](const std::vector<TupleView>& ys,
                       bool retain) -> Status {
        return ProbeFlatIndex(
            outer.area(), *index, ys.size(),
            [&](size_t i) { return FlatProbe::Of(ys[i], keys); }, keys,
            predicate, &p_i,
            [&](size_t i, size_t row, const Interval& common) -> Status {
              if (variant != nullptr) outer.AddCoverage(row, common);
              if (!emit) return Status::OK();
              return writer->Emit(layout, outer.area().view(row), ys[i],
                                  common);
            },
            [&](size_t i) -> Status {
              if (!retain || !ys[i].interval().Overlaps(*p_prev)) {
                return Status::OK();
              }
              return next_gen.AddRecord(ys[i].record());
            });
      };
      // Probes one raw inner page, its records viewed in place.
      PageTupleArena arena;
      auto probe_page = [&](PagePin page, bool retain) -> Status {
        arena.Clear();
        TEMPO_RETURN_IF_ERROR(
            arena.AddPage(s_schema, std::move(page)).status());
        return probe(arena.views(), retain);
      };

      // 2. Join with the in-memory cache page of the consumed generation,
      //    probing its records in place.
      const bool retain = first_chunk && has_prev;
      if (migrate) {
        TEMPO_RETURN_IF_ERROR(probe(cache.memory_views(), retain));
        // 3. Join with each spilled page of the consumed generation (read
        //    raw; records are viewed, never decoded).
        for (uint32_t c = 0; c < cache.spilled_pages(); ++c) {
          TEMPO_ASSIGN_OR_RETURN(PagePin cached, cache.PinSpilledPage(c));
          TEMPO_RETURN_IF_ERROR(probe_page(std::move(cached), retain));
        }
      }

      // 4. Join with each page of s_i.
      for (uint32_t p = 0; p < s_parts[ii]->num_pages(); ++p) {
        TEMPO_ASSIGN_OR_RETURN(PagePin page, s_parts[ii]->PinPage(p));
        TEMPO_RETURN_IF_ERROR(probe_page(std::move(page), migrate && retain));
      }
      if (total == 0) break;
    }

    cache_pages_spilled += next_gen.spilled_pages();
    cache_tuples += next_gen.num_tuples();
    RecordHistogram(ctx, Hist::kCacheOccupancyTuples,
                    static_cast<double>(next_gen.num_tuples()));
    cache = std::move(next_gen);  // drops the consumed generation's spill
  }
  // Tuples still in the area saw every partition they overlap; retire
  // them (unmatched emission) before the caller finishes the writer.
  TEMPO_RETURN_IF_ERROR(outer.RetireAll());
  if (variant == nullptr) TEMPO_RETURN_IF_ERROR(writer->Finish());

  JoinRunStats stats;
  stats.io = acct.stats() - before;
  stats.output_tuples = writer->count();
  stats.Set(Metric::kCachePagesSpilled,
            static_cast<double>(cache_pages_spilled));
  stats.Set(Metric::kCacheTuples, static_cast<double>(cache_tuples));
  stats.Set(Metric::kOverflowChunks, static_cast<double>(overflow_chunks));
  return stats;
}

}  // namespace

StatusOr<JoinRunStats> JoinPartitions(const NaturalJoinLayout& layout,
                                      const PartitionSpec& spec,
                                      PartitionedRelation* pr,
                                      PartitionedRelation* ps,
                                      StoredRelation* out,
                                      uint32_t buffer_pages,
                                      PlacementPolicy placement,
                                      TemporalPredicate predicate,
                                      uint32_t cache_memory_pages,
                                      ExecContext* ctx,
                                      JoinVariant* variant) {
  return JoinPartitionFiles(layout, spec, pr->Files(), ps->Files(), out,
                            buffer_pages, placement, predicate,
                            cache_memory_pages, ctx, variant);
}

StatusOr<PartitionPlan> PlanPartitions(StoredRelation* r,
                                       const PartitionJoinOptions& options,
                                       ExecContext* ctx) {
  PartitionPlanOptions plan_options;
  plan_options.buffer_pages = options.buffer_pages;
  plan_options.cost_model = options.cost_model;
  plan_options.forced_num_partitions = options.forced_num_partitions;
  Random rng(options.seed);
  return DeterminePartIntervals(r, plan_options, &rng, ctx);
}

namespace {

/// One full partition-executor pass — plan, (maybe) Grace partition, join —
/// over (r, s) with r as the build/outer side. `layout` is the natural-join
/// layout of (r, s) *as passed*: the swapped full-outer pass hands in the
/// (s, r) layout. A non-null `handed_plan` is r's partitioning, already
/// drawn by PlanPartitions. Validation is RunJoinContract's job.
StatusOr<JoinRunStats> RunPartitionPass(StoredRelation* r, StoredRelation* s,
                                        StoredRelation* out,
                                        const NaturalJoinLayout& layout,
                                        const PartitionJoinOptions& options,
                                        ExecContext* ctx,
                                        JoinVariant* variant,
                                        const PartitionPlan* handed_plan) {
  TraceSpan root_span = SpanIf(ctx, Phase::kPartitionJoin);

  // Phase 1: determine the partitioning intervals (samples are charged),
  // unless the planner already drew them.
  PartitionPlan own_plan;
  if (handed_plan == nullptr) {
    StatusOr<PartitionPlan> plan_or = Status::Internal("unset");
    {
      TraceSpan plan_span = SpanIf(ctx, Phase::kChooseIntervals);
      plan_or = PlanPartitions(r, options, ctx);
    }
    TEMPO_ASSIGN_OR_RETURN(own_plan, std::move(plan_or));
  }
  const PartitionPlan& plan =
      handed_plan != nullptr ? *handed_plan : own_plan;
  if (ctx != nullptr) {
    // The optimizer's cost split maps onto the span tree: C_sample onto
    // the sampling phase, C_join onto joinPartitions (which re-reads the
    // partitions and pages the tuple cache), their sum onto the root. A
    // handed plan's sampling ran under the planner's span, and the root
    // keeps the planner's estimate.
    ctx->AnnotateEstimate(Phase::kSampling, plan.est_sample_cost);
    ctx->AnnotateEstimate(Phase::kJoinPartitions, plan.est_join_cost);
    if (handed_plan == nullptr) {
      root_span.SetEstimate(plan.est_sample_cost + plan.est_join_cost);
    }
  }

  // Phase 2: Grace-partition both inputs with the same intervals, r then
  // s, on this thread. A plan of one partition joins r and s themselves.
  JoinRunStats stats;
  PartitionedRelation pr;
  PartitionedRelation ps;
  std::vector<StoredRelation*> r_parts = {r};
  std::vector<StoredRelation*> s_parts = {s};
  if (plan.num_partitions > 1) {
    {
      TraceSpan r_span = SpanIf(ctx, Phase::kPartitionR);
      TEMPO_ASSIGN_OR_RETURN(pr, GracePartition(r, plan.spec,
                                                options.buffer_pages,
                                                options.placement, r->name()));
    }
    {
      TraceSpan s_span = SpanIf(ctx, Phase::kPartitionS);
      TEMPO_ASSIGN_OR_RETURN(ps, GracePartition(s, plan.spec,
                                                options.buffer_pages,
                                                options.placement, s->name()));
    }
    r_parts = pr.Files();
    s_parts = ps.Files();
    stats.Set(Metric::kPartitionPagesWritten,
              static_cast<double>(pr.TotalPages() + ps.TotalPages()));
    stats.Set(Metric::kTuplesWritten,
              static_cast<double>(pr.tuples_written + ps.tuples_written));
  }

  // Phase 3: join corresponding partitions.
  TEMPO_ASSIGN_OR_RETURN(
      JoinRunStats join_stats,
      JoinPartitionFiles(layout, plan.spec, r_parts, s_parts, out,
                         options.buffer_pages, options.placement,
                         options.predicate, options.tuple_cache_memory_pages,
                         ctx, variant));
  stats.output_tuples = join_stats.output_tuples;
  stats.metrics.Merge(join_stats.metrics);

  stats.Set(Metric::kPartitions, static_cast<double>(plan.num_partitions));
  stats.Set(Metric::kPartSizePages,
            static_cast<double>(plan.part_size_pages));
  stats.Set(Metric::kSamples, static_cast<double>(plan.samples_drawn));
  stats.Set(Metric::kSampledByScan, plan.sampled_by_scan ? 1.0 : 0.0);
  stats.Set(Metric::kEstSampleCost, plan.est_sample_cost);
  stats.Set(Metric::kEstJoinCost, plan.est_join_cost);
  return stats;
}

}  // namespace

// Declared in service/executor_bodies.h; runs under RunJoinContract.
StatusOr<JoinRunStats> PartitionBody(const NaturalJoinLayout& layout,
                                     StoredRelation* r, StoredRelation* s,
                                     StoredRelation* out,
                                     const PartitionJoinOptions& options,
                                     ExecContext* ctx,
                                     const PartitionPlan* plan) {
  if (options.join_kind == JoinKind::kInner) {
    return RunPartitionPass(r, s, out, layout, options, ctx, nullptr, plan);
  }
  // r's partitioning would not fit the full outer's swapped pass; the
  // planner forces these kinds without sampling.
  TEMPO_DCHECK(plan == nullptr);

  // Sequenced outer/anti variant. The uncovered-subinterval arithmetic
  // assumes every key-matching overlap is observed exactly once, which the
  // dedup rule guarantees only under last-overlap placement (and the
  // overlap predicate, which ValidateExecOptions requires).
  if (options.placement != PlacementPolicy::kLastOverlap) {
    return Status::InvalidArgument(
        "outer/anti join variants require last-overlap placement");
  }

  // One writer across all passes: the full outer's second pass appends
  // its unmatched s rows after pass 1's output.
  ResultWriter writer(out);
  JoinVariant pass1;
  pass1.kind = options.join_kind;
  pass1.emit_matches = options.join_kind != JoinKind::kAnti;
  pass1.preserved_is_r = true;
  pass1.emit_layout = &layout;
  pass1.writer = &writer;
  TEMPO_ASSIGN_OR_RETURN(
      JoinRunStats stats,
      RunPartitionPass(r, s, out, layout, options, ctx, &pass1, nullptr));
  uint64_t unmatched = pass1.unmatched_tuples;
  uint64_t uncovered = pass1.uncovered_subintervals;

  if (options.join_kind == JoinKind::kFullOuter) {
    // Second pass, swapped: s becomes the outer side in coverage-only mode
    // (all matches were emitted by pass 1), contributing s's unmatched
    // rows — assembled under the ORIGINAL layout — to the shared writer.
    TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout swapped,
                           DeriveNaturalJoinLayout(s->schema(), r->schema()));
    TraceSpan outer_span = SpanIf(ctx, Phase::kOuterPass);
    JoinVariant pass2;
    pass2.kind = options.join_kind;
    pass2.emit_matches = false;
    pass2.preserved_is_r = false;
    pass2.emit_layout = &layout;
    pass2.writer = &writer;
    TEMPO_ASSIGN_OR_RETURN(
        JoinRunStats pass2_stats,
        RunPartitionPass(s, r, out, swapped, options, ctx, &pass2, nullptr));
    stats.metrics.Merge(pass2_stats.metrics);
    unmatched += pass2.unmatched_tuples;
    uncovered += pass2.uncovered_subintervals;
  }

  TEMPO_RETURN_IF_ERROR(writer.Finish());
  stats.output_tuples = writer.count();
  stats.Set(Metric::kSequencedJoinKind,
            static_cast<double>(static_cast<uint8_t>(options.join_kind)));
  stats.Set(Metric::kOuterUnmatchedTuples, static_cast<double>(unmatched));
  stats.Set(Metric::kUncoveredSubintervalsEmitted,
            static_cast<double>(uncovered));
  if (options.join_kind == JoinKind::kAnti) {
    stats.Set(Metric::kAntiEmittedIntervals, static_cast<double>(uncovered));
  }
  return stats;
}

StatusOr<JoinRunStats> PartitionVtJoin(StoredRelation* r, StoredRelation* s,
                                       StoredRelation* out,
                                       const PartitionJoinOptions& options,
                                       ExecContext* ctx) {
  return RunJoinContract(JoinExecutor::kPartition, r, s, out, options, ctx,
                         [&](const NaturalJoinLayout& layout) {
                           return PartitionBody(layout, r, s, out, options,
                                                ctx, nullptr);
                         });
}

}  // namespace tempo
