#include "core/partition_join.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "core/tuple_cache.h"
#include "join/build_area.h"
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

/// The outer partition area: a BuildArea (records plus byte accounting)
/// with a FlatIndex over its current contents. The index tracks a dirty
/// flag so a partition that neither purged nor added rows (an empty r_i
/// under migration) skips the rebuild.
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
    if (!area_.empty()) dirty_ = true;
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

  /// Retires every remaining row (end of the partition loop / fast path):
  /// emits each one's uncovered subintervals.
  Status RetireAll() {
    if (variant_ == nullptr) return Status::OK();
    for (size_t row = 0; row < area_.size(); ++row) {
      TEMPO_RETURN_IF_ERROR(
          EmitUncovered(variant_, area_.view(row), coverage_[row]));
    }
    coverage_.assign(area_.size(), {});
    return Status::OK();
  }

  Status AddPage(const Page& page) {
    const size_t before = area_.size();
    TEMPO_RETURN_IF_ERROR(area_.AddPage(page));
    if (area_.size() != before) dirty_ = true;
    if (variant_ != nullptr) coverage_.resize(area_.size());
    return Status::OK();
  }

  /// Folds one key-matching overlap into area row `row`'s coverage. Called
  /// only by the coordinating thread (serial probes inline; parallel
  /// probes buffer per batch and fold at wave flush).
  void AddCoverage(size_t row, const Interval& overlap) {
    coverage_[row].push_back(overlap);
  }

  /// Rebuilds the probe index if the area changed since the last rebuild.
  void RebuildIndex() {
    if (!dirty_) return;
    index_.Build(area_, 0, area_.size());
    dirty_ = false;
  }

  const BuildArea& area() const { return area_; }
  const FlatIndex& index() const { return index_; }

 private:
  BuildArea area_;
  FlatIndex index_;
  // The index starts empty over an empty area, so it starts clean.
  bool dirty_ = false;
  // Non-null while a sequenced outer/anti variant is running; coverage_
  // then parallels the area's rows (the raw overlap intervals seen so far).
  JoinVariant* variant_ = nullptr;
  std::vector<std::vector<Interval>> coverage_;
};

/// Shared parameters of one probe pass (one chunk of one partition).
struct ProbeContext {
  const NaturalJoinLayout* layout = nullptr;
  const Schema* inner_schema = nullptr;
  /// The build rows the index points into.
  const BuildArea* area = nullptr;
  TemporalPredicate predicate;
  /// De-duplication partition p_i: emit only pairs whose overlap ends in
  /// it. Null in the single-partition fast path (no duplicates possible).
  const Interval* dedup_interval = nullptr;
  /// Previous partition p_{i-1}; probe tuples overlapping it are retained
  /// into `retain_cache`. Null disables retention.
  const Interval* retain_interval = nullptr;
  ResultWriter* writer = nullptr;
  TupleCache* retain_cache = nullptr;
  /// Sequenced outer/anti variant of this run (null = inner join). When
  /// set, every dedup-accepted overlap is folded into `coverage_area`'s
  /// coverage of the matched area row, and match emission is gated on
  /// variant->emit_matches.
  JoinVariant* variant = nullptr;
  OuterArea* coverage_area = nullptr;
};

/// Invokes `fn(row, overlap)` for every area row the probe record view
/// `y` must emit with, in FlatIndex order (deterministic for a fixed index
/// build). `row` is x's area row; the outer/anti variants use it to
/// attribute coverage.
template <typename Fn>
void ForEachEmission(const ProbeContext& ctx, const FlatIndex& index,
                     const TupleView& y, Fn&& fn) {
  ForEachFlatMatch(*ctx.area, index, y, ctx.layout->s_join_attrs,
                   ctx.predicate, ctx.dedup_interval, fn);
}

/// Streams probe-side input — raw inner pages and tuple-cache views —
/// against a read-only flat index over the build area. Every probe runs on
/// a zero-copy TupleView: pages are pinned in a PageTupleArena and their
/// records hashed/compared in place; cache records are probed as views
/// over the cache's own memory. Result records are assembled straight
/// from the build and probe record bytes.
///
/// Serial mode (no pool): each batch is viewed and probed inline, in
/// arrival order, emitting directly — byte-for-byte the original
/// tuple-at-a-time loop.
///
/// Parallel mode: the coordinator keeps reading pages (all charged I/O
/// stays on the calling thread, in stream order) while accumulated batches
/// fan out to pool workers, which pin pages into a per-worker arena, probe
/// views, and buffer assembled result bytes. After each wave the
/// coordinator appends the per-batch buffers in batch order, so the output
/// relation and the next cache generation receive tuples in exactly the
/// serial order.
class ProbeStream {
 public:
  ProbeStream(const ProbeContext& ctx, const FlatIndex* index,
              ThreadPool* pool, const ParallelOptions& parallel,
              MorselStats* stats)
      : ctx_(ctx), index_(index), pool_(pool), stats_(stats) {
    if (pool_ != nullptr && parallel.enabled()) {
      batch_pages_ = std::max<uint32_t>(1, parallel.morsel_pages);
      wave_limit_ = std::max<size_t>(1, 4 * parallel.num_threads);
    }
  }

  ProbeStream(const ProbeStream&) = delete;
  ProbeStream& operator=(const ProbeStream&) = delete;

  /// Streams one raw inner page (pinned and viewed on a worker in parallel
  /// mode).
  Status AddPage(const Page& page, bool allow_retain) {
    views_probed_ += page.num_records();
    if (wave_limit_ == 0) {
      arena_.Clear();
      TEMPO_RETURN_IF_ERROR(
          StoredRelation::DecodePageViews(*ctx_.inner_schema, page, &arena_)
              .status());
      for (const TupleView& y : arena_.views()) {
        TEMPO_RETURN_IF_ERROR(ProbeOneSerial(y, allow_retain));
      }
      return Status::OK();
    }
    if (!wave_.empty() && wave_.back().views.empty() &&
        wave_.back().allow_retain == allow_retain &&
        wave_.back().pages.size() < batch_pages_) {
      wave_.back().pages.push_back(page);
      return Status::OK();
    }
    Batch b;
    b.pages.push_back(page);
    b.allow_retain = allow_retain;
    return PushBatch(std::move(b));
  }

  /// Streams probe views over storage that outlives the stream (the tuple
  /// cache's in-memory records).
  Status AddViews(const std::vector<TupleView>& views, bool allow_retain) {
    views_probed_ += views.size();
    if (wave_limit_ == 0) {
      for (const TupleView& y : views) {
        TEMPO_RETURN_IF_ERROR(ProbeOneSerial(y, allow_retain));
      }
      return Status::OK();
    }
    Batch b;
    b.views = views;
    b.allow_retain = allow_retain;
    return PushBatch(std::move(b));
  }

  /// Drains any pending parallel wave. Must be called before destruction.
  Status Finish() { return FlushWave(); }

  /// Records probed as views (no owning decode); feeds the
  /// decode_materializations_avoided metric.
  uint64_t views_probed() const { return views_probed_; }

 private:
  struct Batch {
    std::vector<Page> pages;      // raw pages, pinned+viewed on the worker…
    std::vector<TupleView> views;  // …or views into stable cache memory
    bool allow_retain = false;
  };
  struct BatchResult {
    // Assembled result records back to back, in emission order; record k
    // ends at result_ends[k].
    std::string results;
    std::vector<size_t> result_ends;
    // Raw record bytes for the next cache generation (views into the
    // worker's arena die with the wave, so the bytes are copied out).
    std::vector<std::string> retained;
    // Variant runs: (area row, overlap) per dedup-accepted pair. The
    // coordinator folds these into the outer area's coverage at wave
    // flush — workers never touch shared coverage state.
    std::vector<std::pair<size_t, Interval>> covered;
  };

  bool WantsRetention(const TupleView& y, bool allow_retain) const {
    return allow_retain && ctx_.retain_cache != nullptr &&
           ctx_.retain_interval != nullptr &&
           y.interval().Overlaps(*ctx_.retain_interval);
  }

  bool EmitsMatches() const {
    return ctx_.variant == nullptr || ctx_.variant->emit_matches;
  }

  Status ProbeOneSerial(const TupleView& y, bool allow_retain) {
    Status status = Status::OK();
    ForEachEmission(ctx_, *index_, y,
                    [&](size_t row, const Interval& common) {
                      if (!status.ok()) return;
                      if (ctx_.coverage_area != nullptr) {
                        ctx_.coverage_area->AddCoverage(row, common);
                      }
                      if (!EmitsMatches()) return;
                      status = ctx_.writer->Emit(
                          *ctx_.layout, ctx_.area->view(row), y, common);
                    });
    TEMPO_RETURN_IF_ERROR(status);
    if (WantsRetention(y, allow_retain)) {
      TEMPO_RETURN_IF_ERROR(ctx_.retain_cache->AddRecord(y.record()));
    }
    return Status::OK();
  }

  Status PushBatch(Batch b) {
    wave_.push_back(std::move(b));
    if (wave_.size() >= wave_limit_) return FlushWave();
    return Status::OK();
  }

  /// Worker side: pin+view (if needed) and probe one batch into `out`.
  Status ProbeBatchWorker(const Batch& b, BatchResult* out) const {
    thread_local PageTupleArena arena;
    const std::vector<TupleView>* src = &b.views;
    if (!b.pages.empty()) {
      arena.Clear();
      for (const Page& p : b.pages) {
        TEMPO_RETURN_IF_ERROR(
            StoredRelation::DecodePageViews(*ctx_.inner_schema, p, &arena)
                .status());
      }
      src = &arena.views();
    }
    for (const TupleView& y : *src) {
      ForEachEmission(ctx_, *index_, y,
                      [&](size_t row, const Interval& common) {
                        if (ctx_.coverage_area != nullptr) {
                          out->covered.emplace_back(row, common);
                        }
                        if (!EmitsMatches()) return;
                        AppendJoinRecord(*ctx_.layout, ctx_.area->view(row),
                                         y, common, &out->results);
                        out->result_ends.push_back(out->results.size());
                      });
      if (WantsRetention(y, b.allow_retain)) {
        out->retained.emplace_back(y.record());
      }
    }
    return Status::OK();
  }

  Status FlushWave() {
    if (wave_.empty()) return Status::OK();
    std::vector<BatchResult> results(wave_.size());
    Status st = ParallelFor(
        pool_, wave_.size(), 1,
        [&](size_t m, size_t begin, size_t end) -> Status {
          (void)end;
          (void)m;
          return ProbeBatchWorker(wave_[begin], &results[begin]);
        },
        stats_);
    TEMPO_RETURN_IF_ERROR(st);
    for (BatchResult& r : results) {
      for (const auto& [row, overlap] : r.covered) {
        ctx_.coverage_area->AddCoverage(row, overlap);
      }
      const std::string_view bytes = r.results;
      size_t begin = 0;
      for (size_t end : r.result_ends) {
        TEMPO_RETURN_IF_ERROR(
            ctx_.writer->EmitSerialized(bytes.substr(begin, end - begin)));
        begin = end;
      }
      for (const std::string& rec : r.retained) {
        TEMPO_RETURN_IF_ERROR(ctx_.retain_cache->AddRecord(rec));
      }
    }
    wave_.clear();
    return Status::OK();
  }

  ProbeContext ctx_;
  const FlatIndex* index_;
  ThreadPool* pool_;
  MorselStats* stats_;
  uint32_t batch_pages_ = 1;
  size_t wave_limit_ = 0;  // 0 = serial
  std::vector<Batch> wave_;
  PageTupleArena arena_;  // serial pin+view arena, cleared per page
  uint64_t views_probed_ = 0;
};

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
                                      MorselStats* morsel_stats,
                                      JoinVariant* variant) {
  const size_t n = spec.num_partitions();
  if (pr->parts.size() != n || ps->parts.size() != n) {
    return Status::InvalidArgument(
        "partitioned relations do not match the partition spec");
  }
  if (buffer_pages < 4) {
    return Status::InvalidArgument(
        "joinPartitions needs at least 4 buffer pages");
  }
  Scheduler* scheduler = SchedulerOf(ctx);
  const ParallelOptions parallel = SchedulerParallel(scheduler);
  ThreadPool* pool = SchedulerPool(scheduler);
  Disk* disk = out->disk();
  IoAccountant& acct = disk->accountant();
  IoStats before = acct.stats();
  TraceSpan join_span = SpanIf(ctx, Phase::kJoinPartitions);

  const Schema& r_schema = pr->parts.empty() ? out->schema()
                                             : pr->parts[0]->schema();
  const Schema& s_schema = ps->parts.empty() ? out->schema()
                                             : ps->parts[0]->schema();
  if (cache_memory_pages == 0) cache_memory_pages = 1;
  // Figure 3 layout: one inner page, one result page, cache_memory_pages
  // for the tuple cache (normally 1), and the rest is partition area.
  const uint32_t reserved = 2 + cache_memory_pages;
  const size_t area_bytes =
      static_cast<size_t>(
          buffer_pages > reserved ? buffer_pages - reserved : 1) *
      kPagePayload;
  const bool migrate = placement == PlacementPolicy::kLastOverlap;

  // Variant passes share the caller's canonical writer (the full outer
  // feeds two passes into one writer); the caller finishes it.
  ResultWriter local_writer(out);
  ResultWriter* writer = variant != nullptr ? variant->writer : &local_writer;
  OuterArea outer(&r_schema, &layout.r_join_attrs);
  if (variant != nullptr) outer.TrackCoverage(variant);
  TupleCache cache(disk, s_schema, out->name() + ".gen",
                   cache_memory_pages);  // consumed generation
  uint64_t cache_pages_spilled = 0;
  uint64_t cache_tuples = 0;
  uint64_t overflow_chunks = 0;
  uint64_t views_probed = 0;
  MorselStats probe_stats;

  // Computation proceeds from r_n |X| s_n down to r_1 |X| s_1. The
  // generation loop is inherently sequential — partition i's cache
  // generation feeds partition i-1 — so parallelism lives *inside* each
  // partition: page decode and hash probe fan out across the pool while
  // this coordinator performs all I/O in the paper's order.
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
    {
      StoredRelation* part = pr->parts[ii].get();
      const uint32_t pages = part->num_pages();
      for (uint32_t p = 0; p < pages; ++p) {
        Page page;
        TEMPO_RETURN_IF_ERROR(part->ReadPage(p, &page));
        TEMPO_RETURN_IF_ERROR(outer.AddPage(page));
      }
    }

    // Overflow handling: process the outer area in memory-sized chunks;
    // each chunk beyond the first re-reads the inner inputs (thrashing).
    const size_t total = outer.area().size();
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

      ProbeContext probe_ctx;
      probe_ctx.layout = &layout;
      probe_ctx.inner_schema = &s_schema;
      probe_ctx.area = &outer.area();
      probe_ctx.predicate = predicate;
      probe_ctx.dedup_interval = &p_i;
      probe_ctx.retain_interval = p_prev;
      probe_ctx.writer = writer;
      probe_ctx.retain_cache = &next_gen;
      if (variant != nullptr) {
        probe_ctx.variant = variant;
        probe_ctx.coverage_area = &outer;
      }
      ProbeStream stream(probe_ctx, index, pool, parallel, &probe_stats);

      // 2. Join with the in-memory cache page of the consumed generation,
      //    probing its records in place.
      const bool retain = first_chunk && has_prev;
      if (migrate) {
        TEMPO_RETURN_IF_ERROR(stream.AddViews(cache.memory_views(), retain));
        // 3. Join with each spilled page of the consumed generation (read
        //    raw; records are viewed, never decoded).
        for (uint32_t c = 0; c < cache.spilled_pages(); ++c) {
          Page cached;
          TEMPO_RETURN_IF_ERROR(cache.ReadSpilledPageRaw(c, &cached));
          TEMPO_RETURN_IF_ERROR(stream.AddPage(cached, retain));
        }
      }

      // 4. Join with each page of s_i.
      {
        StoredRelation* part = ps->parts[ii].get();
        const uint32_t pages = part->num_pages();
        for (uint32_t p = 0; p < pages; ++p) {
          Page page;
          TEMPO_RETURN_IF_ERROR(part->ReadPage(p, &page));
          TEMPO_RETURN_IF_ERROR(stream.AddPage(page, migrate && retain));
        }
      }
      TEMPO_RETURN_IF_ERROR(stream.Finish());
      views_probed += stream.views_probed();
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
  stats.Set(Metric::kDecodeMaterializationsAvoided,
            static_cast<double>(views_probed));
  if (parallel.enabled()) {
    stats.Set(Metric::kMorselsDispatched,
              static_cast<double>(probe_stats.morsels_dispatched));
    stats.Set(Metric::kParallelEfficiency,
              probe_stats.Efficiency(parallel.num_threads));
  }
  join_span.AddMorsels(probe_stats);
  MergeHistogram(ctx, Hist::kMorselDurationUs, probe_stats.duration_hist);
  if (morsel_stats != nullptr) morsel_stats->Merge(probe_stats);
  return stats;
}

namespace {

/// One full partition-executor pass — plan, (maybe) Grace partition, join —
/// over (r, s) with r as the build/outer side. `layout` is the natural-join
/// layout of (r, s) *as passed*: the swapped full-outer pass hands in the
/// (s, r) layout. Validation is RunJoinContract's job.
StatusOr<JoinRunStats> RunPartitionPass(StoredRelation* r, StoredRelation* s,
                                        StoredRelation* out,
                                        const NaturalJoinLayout& layout,
                                        const PartitionJoinOptions& options,
                                        ExecContext* ctx,
                                        JoinVariant* variant) {
  Disk* disk = r->disk();
  TraceSpan root_span = SpanIf(ctx, Phase::kPartitionJoin);
  Random rng(options.seed);

  Scheduler* scheduler = SchedulerOf(ctx);
  const ParallelOptions parallel = SchedulerParallel(scheduler);
  ThreadPool* pool = SchedulerPool(scheduler);
  MorselStats total_morsels;

  // Phase 1: determine the partitioning intervals (samples are charged).
  PartitionPlanOptions plan_options;
  plan_options.buffer_pages = options.buffer_pages;
  plan_options.cost_model = options.cost_model;
  plan_options.forced_num_partitions = options.forced_num_partitions;
  StatusOr<PartitionPlan> plan_or = Status::Internal("unset");
  {
    TraceSpan plan_span = SpanIf(ctx, Phase::kChooseIntervals);
    plan_or = DeterminePartIntervals(r, plan_options, &rng, ctx);
  }
  TEMPO_RETURN_IF_ERROR(plan_or.status());
  PartitionPlan plan = std::move(plan_or).value();
  if (ctx != nullptr) {
    // The optimizer's cost split maps onto the span tree: C_sample onto
    // the sampling phase, C_join onto joinPartitions (which re-reads the
    // partitions and pages the tuple cache), their sum onto the root.
    ctx->AnnotateEstimate(Phase::kSampling, plan.est_sample_cost);
    ctx->AnnotateEstimate(Phase::kJoinPartitions, plan.est_join_cost);
    root_span.SetEstimate(plan.est_sample_cost + plan.est_join_cost);
  }

  JoinRunStats stats;
  if (plan.num_partitions <= 1) {
    // The outer relation fits in the partition area: no partitioning I/O;
    // read r into memory and stream s past it.
    TraceSpan fast_span = SpanIf(ctx, Phase::kJoinPartitions);
    OuterArea outer(&r->schema(), &layout.r_join_attrs);
    if (variant != nullptr) outer.TrackCoverage(variant);
    const uint32_t pages = r->num_pages();
    for (uint32_t p = 0; p < pages; ++p) {
      Page page;
      TEMPO_RETURN_IF_ERROR(r->ReadPage(p, &page));
      TEMPO_RETURN_IF_ERROR(outer.AddPage(page));
    }
    outer.RebuildIndex();
    ResultWriter local_writer(out);
    ResultWriter* writer =
        variant != nullptr ? variant->writer : &local_writer;

    ProbeContext probe_ctx;
    probe_ctx.layout = &layout;
    probe_ctx.inner_schema = &s->schema();
    probe_ctx.area = &outer.area();
    probe_ctx.predicate = options.predicate;
    probe_ctx.writer = writer;
    if (variant != nullptr) {
      probe_ctx.variant = variant;
      probe_ctx.coverage_area = &outer;
    }
    ProbeStream stream(probe_ctx, &outer.index(), pool, parallel,
                       &total_morsels);
    const uint32_t s_pages = s->num_pages();
    for (uint32_t p = 0; p < s_pages; ++p) {
      Page page;
      TEMPO_RETURN_IF_ERROR(s->ReadPage(p, &page));
      TEMPO_RETURN_IF_ERROR(stream.AddPage(page, /*allow_retain=*/false));
    }
    TEMPO_RETURN_IF_ERROR(stream.Finish());
    TEMPO_RETURN_IF_ERROR(outer.RetireAll());
    if (variant == nullptr) TEMPO_RETURN_IF_ERROR(writer->Finish());
    fast_span.AddMorsels(total_morsels);
    stats.output_tuples = writer->count();
    stats.Set(Metric::kDecodeMaterializationsAvoided,
              static_cast<double>(stream.views_probed()));
  } else {
    // Phase 2: Grace-partition both inputs with the same intervals. With a
    // pool, r and s are partitioned concurrently — each input has its own
    // coordinating thread reading its pages in scan order and its own
    // output files, so charged per-file I/O is unchanged — and each
    // coordinator fans decode/route morsels across the shared workers.
    StatusOr<PartitionedRelation> pr_or = Status::Internal("unset");
    StatusOr<PartitionedRelation> ps_or = Status::Internal("unset");
    MorselStats r_morsels, s_morsels;
    if (pool != nullptr) {
      // The r coordinator runs on a spawned thread whose span stack is
      // empty, so its span names the partition-join root as parent
      // explicitly; the tree shape matches the serial run. The thread also
      // re-binds this query's per-thread accountant (if one is bound):
      // r's charged I/O must land on the same per-query ledger as the
      // coordinator's, not on the disk's base accountant.
      IoAccountant* bound = disk->BoundAccountant();
      MorselProgress* progress = ScopedMorselProgress::Current();
      std::thread r_thread([&, bound, progress] {
        ScopedAccountantBinding rebind(disk, bound);
        // Like the accountant, the query's live morsel counter is a
        // per-thread binding: rebind it so r's regions count toward the
        // same query's Progress().
        ScopedMorselProgress reprogress(progress);
        TraceSpan r_span =
            SpanUnderIf(ctx, root_span, Phase::kPartitionR);
        pr_or = GracePartition(r, plan.spec, options.buffer_pages,
                               options.placement, r->name(), scheduler,
                               &r_morsels);
        r_span.AddMorsels(r_morsels);
      });
      {
        TraceSpan s_span = SpanIf(ctx, Phase::kPartitionS);
        ps_or = GracePartition(s, plan.spec, options.buffer_pages,
                               options.placement, s->name(), scheduler,
                               &s_morsels);
        s_span.AddMorsels(s_morsels);
      }
      r_thread.join();
    } else {
      {
        TraceSpan r_span = SpanIf(ctx, Phase::kPartitionR);
        pr_or = GracePartition(r, plan.spec, options.buffer_pages,
                               options.placement, r->name());
      }
      TraceSpan s_span = SpanIf(ctx, Phase::kPartitionS);
      ps_or = GracePartition(s, plan.spec, options.buffer_pages,
                             options.placement, s->name());
    }
    TEMPO_RETURN_IF_ERROR(pr_or.status());
    TEMPO_RETURN_IF_ERROR(ps_or.status());
    PartitionedRelation pr = std::move(pr_or).value();
    PartitionedRelation ps = std::move(ps_or).value();
    total_morsels.Merge(r_morsels);
    total_morsels.Merge(s_morsels);
    stats.Set(Metric::kPartitionPagesWritten,
              static_cast<double>(pr.TotalPages() + ps.TotalPages()));
    stats.Set(Metric::kTuplesWritten,
              static_cast<double>(pr.tuples_written + ps.tuples_written));

    // Phase 3: join corresponding partitions.
    TEMPO_ASSIGN_OR_RETURN(
        JoinRunStats join_stats,
        JoinPartitions(layout, plan.spec, &pr, &ps, out, options.buffer_pages,
                       options.placement, options.predicate,
                       options.tuple_cache_memory_pages, ctx,
                       &total_morsels, variant));
    stats.output_tuples = join_stats.output_tuples;
    stats.metrics.Merge(join_stats.metrics);
    stats.Add(Metric::kDecodeMaterializationsAvoided,
              static_cast<double>(pr.records_routed_zero_copy +
                                  ps.records_routed_zero_copy));
  }

  stats.Set(Metric::kPartitions, static_cast<double>(plan.num_partitions));
  stats.Set(Metric::kPartSizePages,
            static_cast<double>(plan.part_size_pages));
  stats.Set(Metric::kSamples, static_cast<double>(plan.samples_drawn));
  stats.Set(Metric::kSampledByScan, plan.sampled_by_scan ? 1.0 : 0.0);
  stats.Set(Metric::kEstSampleCost, plan.est_sample_cost);
  stats.Set(Metric::kEstJoinCost, plan.est_join_cost);
  if (parallel.enabled()) {
    stats.Set(Metric::kMorselsDispatched,
              static_cast<double>(total_morsels.morsels_dispatched));
    stats.Set(Metric::kParallelEfficiency,
              total_morsels.Efficiency(parallel.num_threads));
  }
  return stats;
}

}  // namespace

// Declared in service/executor_bodies.h; runs under RunJoinContract.
StatusOr<JoinRunStats> PartitionBody(const NaturalJoinLayout& layout,
                                     StoredRelation* r, StoredRelation* s,
                                     StoredRelation* out,
                                     const PartitionJoinOptions& options,
                                     ExecContext* ctx) {
  if (options.join_kind == JoinKind::kInner) {
    return RunPartitionPass(r, s, out, layout, options, ctx, nullptr);
  }

  // Sequenced outer/anti variant. The uncovered-subinterval arithmetic
  // assumes every key-matching overlap is observed exactly once, which the
  // dedup rule guarantees only under last-overlap placement (and the
  // overlap predicate, which ValidateExecOptions requires).
  if (options.placement != PlacementPolicy::kLastOverlap) {
    return Status::InvalidArgument(
        "outer/anti join variants require last-overlap placement");
  }

  // One canonical writer across all passes: emission is buffered and
  // sorted at Finish, so output bytes are a pure function of the result
  // multiset — identical for any thread count and for the oracle.
  ResultWriter writer = ResultWriter::Canonical(out);
  JoinVariant pass1;
  pass1.kind = options.join_kind;
  pass1.emit_matches = options.join_kind != JoinKind::kAnti;
  pass1.preserved_is_r = true;
  pass1.emit_layout = &layout;
  pass1.writer = &writer;
  TEMPO_ASSIGN_OR_RETURN(
      JoinRunStats stats,
      RunPartitionPass(r, s, out, layout, options, ctx, &pass1));
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
        RunPartitionPass(s, r, out, swapped, options, ctx, &pass2));
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
                                                ctx);
                         });
}

}  // namespace tempo
