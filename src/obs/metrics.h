#ifndef TEMPO_OBS_METRICS_H_
#define TEMPO_OBS_METRICS_H_

#include <array>
#include <bitset>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/histogram.h"

namespace tempo {

/// The single declaration point for every scalar metric an executor may
/// emit:
///   TEMPO_METRIC(enumerator, "name", "unit", "owner", "doc")
///
/// The enumerator becomes Metric::k<enumerator>; the name is the stable
/// key the JSON exporters emit it under (and what
/// MetricsRegistry::Describe() documents). Adding a metric here is the
/// only way to emit one — the typed Set/Add API cannot name an undeclared
/// metric, which is the point of the registry.
#define TEMPO_METRIC_LIST(M)                                                  \
  M(OuterBlocks, "outer_blocks", "count", "nested-loop",                      \
    "Outer blocks loaded; each block triggers one full scan of the inner "    \
    "relation.")                                                              \
  M(SortIoOps, "sort_io_ops", "ops", "sort-merge / indexed / sweep",          \
    "Unweighted I/O operations spent externally sorting the inputs by Vs.")   \
  M(BackupPageReads, "backup_page_reads", "pages", "sort-merge",              \
    "Sorted-file pages physically re-read because a match hit a long-lived "  \
    "tuple evicted from the merge window (the paper's back-up cost).")        \
  M(MaxActiveTuples, "max_active_tuples", "tuples", "sort-merge",             \
    "Peak combined size of the two active (not-yet-expired) sweep sets.")     \
  M(IndexNodePages, "index_node_pages", "pages", "indexed",                   \
    "Node pages of the append-only tree built over the inner relation.")      \
  M(IndexBuildIoOps, "index_build_io_ops", "ops", "indexed",                  \
    "Unweighted I/O operations of the index build (node writes).")            \
  M(InnerPagesScanned, "inner_pages_scanned", "pages", "indexed",             \
    "Inner data pages scanned across all probes (after index range "          \
    "pruning, through the LRU data pool).")                                   \
  M(Partitions, "partitions", "count", "partition / PartitionCoalesce",       \
    "Partitioning intervals chosen by the optimizer.")                        \
  M(PartSizePages, "part_size_pages", "pages", "partition",                   \
    "Estimated pages per outer partition of the chosen plan.")                \
  M(Samples, "samples", "count", "partition",                                 \
    "Interval samples drawn by the Kolmogorov-bounded sampler.")              \
  M(SampledByScan, "sampled_by_scan", "flag", "partition",                    \
    "1 when the sampler switched to one sequential scan (Section 4.2), 0 "    \
    "for per-sample random reads.")                                           \
  M(EstSampleCost, "est_sample_cost", "cost", "partition",                    \
    "Planner-estimated C_sample of the chosen partitioning.")                 \
  M(EstJoinCost, "est_join_cost", "cost", "partition",                        \
    "Planner-estimated C_join (partition write+read plus tuple-cache "        \
    "paging) of the chosen partitioning.")                                    \
  M(PartitionPagesWritten, "partition_pages_written", "pages",                \
    "partition",                                                              \
    "Pages written by Grace partitioning across both inputs.")                \
  M(TuplesWritten, "tuples_written", "tuples", "partition",                   \
    "Tuples written by Grace partitioning; exceeds the input cardinality "    \
    "only under the replication ablation policy.")                            \
  M(CachePagesSpilled, "cache_pages_spilled", "pages", "JoinPartitions",      \
    "Tuple-cache pages spilled to disk across all cache generations.")        \
  M(CacheTuples, "cache_tuples", "tuples", "JoinPartitions",                  \
    "Tuples migrated backwards through the tuple cache.")                     \
  M(OverflowChunks, "overflow_chunks", "count", "JoinPartitions",             \
    "Extra outer-area chunks processed because a partition overflowed the "   \
    "partition area (sampling-error thrashing).")                             \
  M(CarriedRuns, "carried_runs", "count", "PartitionCoalesce",                \
    "Coalescing runs carried across a partition boundary.")                   \
  M(DecodeMaterializationsAvoided, "decode_materializations_avoided",         \
    "tuples", "zero-copy record views",                                       \
    "Records processed as page-backed TupleViews instead of decoded into "    \
    "owning Tuples (partition routing plus hash-probe streaming).")           \
  M(MorselsDispatched, "morsels_dispatched", "count", "parallel layer",       \
    "Never set: every phase runs on the query's thread. Declared only "       \
    "because perfbench still reads it.")                                      \
  M(ParallelEfficiency, "parallel_efficiency", "ratio", "parallel layer",     \
    "Never set: every phase runs on the query's thread. Declared only "       \
    "because perfbench still reads it.")                                      \
  M(PlannedAlgorithm, "planned_algorithm", "enum", "RunJoin",                 \
    "Algorithm the planner chose: 0 = nested-loops, 1 = sort-merge, 2 = "     \
    "partition, 3 = in-memory radix, 4 = endpoint sweep.")                    \
  M(PlannedCost, "planned_cost", "cost", "RunJoin",                           \
    "Planner-estimated I/O cost of the chosen algorithm.")                    \
  M(RadixPasses, "radix_passes", "count", "in-memory-radix",                  \
    "Counting-sort passes that group s's columns by key-hash slot: 1, or 0 "  \
    "when s is empty. r is streamed in input order, never grouped.")          \
  M(RadixFanout, "radix_fanout", "count", "in-memory-radix",                  \
    "Slots in s's key-hash grouping: the smallest power of two >= s's rows "  \
    "(0 when s is empty).")                                                   \
  M(RadixBuckets, "radix_buckets", "count", "in-memory-radix",                \
    "Slots of s's key-hash grouping that hold at least one row.")             \
  M(RadixRowsRouted, "radix_rows_routed", "tuples", "in-memory-radix",        \
    "Column entries placed by the grouping: one per s row.")                  \
  M(RadixEstFootprintBytes, "radix_est_footprint_bytes", "bytes",             \
    "PlanVtJoin / in-memory-radix",                                           \
    "Planner-estimated in-memory footprint of the radix path: page bytes "    \
    "of both inputs (deliberately optimistic; the exact per-row overhead "    \
    "is only known at extraction).")                                          \
  M(RadixActFootprintBytes, "radix_act_footprint_bytes", "bytes",             \
    "in-memory-radix",                                                        \
    "Exact pinned-page plus column/view bytes reached during extraction; "    \
    "on a budget abort, the footprint at the point extraction stopped.")      \
  M(RadixBudgetBytes, "radix_budget_bytes", "bytes", "in-memory-radix",       \
    "Resolved in-memory budget the radix path was charged against "           \
    "(options field, TEMPO_RADIX_THRESHOLD_MB, or buffer_pages-derived).")    \
  M(RadixFallback, "radix_fallback", "flag", "RunJoin",                       \
    "1 when the planner chose the radix path but extraction exceeded the "    \
    "memory budget and the run fell back to the paged Grace join.")           \
  M(AdmissionQueuePeak, "admission_queue_peak", "count", "QueryService",      \
    "Peak depth of the FIFO admission queue — queries that had to wait "      \
    "for buffer-pool reservations — over the service's lifetime.")            \
  M(QueriesCompleted, "queries_completed", "count", "QueryService",           \
    "Queries that ran to completion (successfully or with an execution "      \
    "error) after being admitted.")                                           \
  M(QueriesCancelled, "queries_cancelled", "count", "QueryService",           \
    "Queries cancelled while still waiting in the admission queue; their "    \
    "reservations were never granted.")                                       \
  M(SequencedJoinKind, "join_kind", "enum", "partition / reference",          \
    "Sequenced join variant evaluated: 0 = inner, 1 = left-outer, 2 = "       \
    "full-outer, 3 = anti. Set only by variant-capable runs.")                \
  M(OuterUnmatchedTuples, "outer_unmatched_tuples", "tuples",                 \
    "outer/anti join variants",                                               \
    "Input tuples (either preserved side) whose validity interval was not "   \
    "fully covered by key-matching partners and therefore produced at "       \
    "least one unmatched result row.")                                        \
  M(AntiEmittedIntervals, "anti_emitted_intervals", "count",                  \
    "outer/anti join variants",                                               \
    "Uncovered subintervals emitted by the anti join (its entire output; "    \
    "0 for the outer kinds, which count theirs under "                        \
    "uncovered_subintervals_emitted).")                                       \
  M(UncoveredSubintervalsEmitted, "uncovered_subintervals_emitted", "count",  \
    "outer/anti join variants",                                               \
    "Total uncovered subintervals computed by IntervalSet difference and "    \
    "emitted as NULL-padded (outer) or bare (anti) result rows, summed "      \
    "over both preserved sides.")                                             \
  M(JoinPredicateMask, "join_predicate_mask", "bitmask",                       \
    "RunJoinContract / sweep",                                                \
    "TemporalPredicate evaluated by the run, as its 13-bit Allen-relation "   \
    "mask (bit i = relation i in enum order, before..after). Set by every "   \
    "sweep run and by any run whose predicate is not the default overlap "    \
    "disjunction (0x7fc).")                                                   \
  M(SweepActivePeak, "sweep_active_peak", "tuples", "sweep",                  \
    "Peak combined live-tuple count of the two gapless active maps during "   \
    "the sweep pass.")                                                        \
  M(SweepAppends, "sweep_appends", "tuples", "sweep",                         \
    "Tuples appended to the active maps (every input tuple, once).")          \
  M(SweepCompactions, "sweep_compactions", "count", "sweep",                  \
    "Global compactions of the gapless active maps, triggered when expired "  \
    "entries exceed half of a map's append log.")                             \
  M(SweepProbeHits, "sweep_probe_hits", "tuples", "sweep",                    \
    "Active-map candidates visited across all probes (bucket walk length "    \
    "after the liveness filter).")                                            \
  M(ActiveBucketEntriesPeak, "active_bucket_entries_peak", "entries",         \
    "sort-merge / sweep",                                                     \
    "Peak combined hash-bucket index entries of the co-sweep's two active "   \
    "maps, expired entries not yet removed included. Compaction keeps each "  \
    "map's entries within max(64, twice its live count).")

/// The declaration point for every histogram-kind metric, parallel to
/// TEMPO_METRIC_LIST:
///   TEMPO_HISTOGRAM(enumerator, "name", "unit", "owner", "doc")
///
/// Histograms are log-bucketed sample distributions (LogHistogram) rather
/// than single values: a run records many page-read latencies or cache
/// occupancies, and the export layer snapshots the full distribution.
/// Like scalar metrics, the typed API cannot name an undeclared one.
#define TEMPO_HISTOGRAM_LIST(H)                                               \
  H(PageReadLatencyUs, "page_read_latency_us", "us", "Disk / IoAccountant",   \
    "Wall-clock latency of each charged or uncharged page read, captured at " \
    "the Disk boundary while an ExecContext has the accountant bound. "       \
    "Simulated storage, so this measures copy + lock time, not seeks.")       \
  H(CacheOccupancyTuples, "cache_occupancy_tuples", "tuples",                 \
    "JoinPartitions",                                                         \
    "Tuples resident in the backwards tuple cache at the end of each "        \
    "partition — the per-partition footprint behind the aggregate "           \
    "cache_tuples counter. Deterministic for a fixed seed.")                  \
  H(AdmissionWaitUs, "admission_wait_us", "us", "QueryService",               \
    "Wall-clock time each admitted query spent queued for its buffer-pool "   \
    "reservation (0 for queries admitted immediately).")                      \
  H(QueryLatencyUs, "query_latency_us", "us", "QueryService",                 \
    "End-to-end wall-clock latency of each query: submission to result, "     \
    "including admission wait and execution.")

/// Compile-time-checked identifier of a declared metric.
enum class Metric : uint16_t {
#define TEMPO_METRIC_ENUM(id, name, unit, owner, doc) k##id,
  TEMPO_METRIC_LIST(TEMPO_METRIC_ENUM)
#undef TEMPO_METRIC_ENUM
};

/// Number of declared metrics.
inline constexpr size_t kNumMetrics = []() constexpr {
  size_t n = 0;
#define TEMPO_METRIC_COUNT(id, name, unit, owner, doc) ++n;
  TEMPO_METRIC_LIST(TEMPO_METRIC_COUNT)
#undef TEMPO_METRIC_COUNT
  return n;
}();

/// Compile-time-checked identifier of a declared histogram.
enum class Hist : uint16_t {
#define TEMPO_HISTOGRAM_ENUM(id, name, unit, owner, doc) k##id,
  TEMPO_HISTOGRAM_LIST(TEMPO_HISTOGRAM_ENUM)
#undef TEMPO_HISTOGRAM_ENUM
};

/// Number of declared histograms.
inline constexpr size_t kNumHistograms = []() constexpr {
  size_t n = 0;
#define TEMPO_HISTOGRAM_COUNT(id, name, unit, owner, doc) ++n;
  TEMPO_HISTOGRAM_LIST(TEMPO_HISTOGRAM_COUNT)
#undef TEMPO_HISTOGRAM_COUNT
  return n;
}();

/// One metric's declaration.
struct MetricDef {
  Metric id;
  const char* name;   ///< stable key (the metrics-JSON / bench-JSON key)
  const char* unit;   ///< count, pages, tuples, ops, bytes, cost, ratio, flag, enum
  const char* owner;  ///< executor(s) that emit it
  const char* doc;    ///< one-line description
};

/// One histogram's declaration.
struct HistogramDef {
  Hist id;
  const char* name;   ///< stable key (the metrics-JSON / bench-JSON key)
  const char* unit;   ///< unit of the recorded samples (us, tuples, ...)
  const char* owner;  ///< subsystem that records it
  const char* doc;    ///< one-line description
};

/// Declaration of `m`.
const MetricDef& GetMetricDef(Metric m);

/// All declared metrics, in declaration order.
const std::array<MetricDef, kNumMetrics>& AllMetricDefs();

/// Looks a metric up by its stable name; null when undeclared. Used by the
/// conformance test that asserts no executor emits an undeclared key.
const MetricDef* FindMetricByName(std::string_view name);

/// Declaration of `h`.
const HistogramDef& GetHistogramDef(Hist h);

/// All declared histograms, in declaration order.
const std::array<HistogramDef, kNumHistograms>& AllHistogramDefs();

/// Looks a histogram up by its stable name; null when undeclared.
const HistogramDef* FindHistogramByName(std::string_view name);

/// The typed store of executor counters: a fixed-slot value store over
/// the declared scalar metrics (unset metrics are distinguishable from
/// zero-valued ones) plus one LogHistogram slot per declared histogram.
class MetricsRegistry {
 public:
  void Set(Metric m, double value) {
    values_[Index(m)] = value;
    present_.set(Index(m));
  }

  void Add(Metric m, double delta) {
    values_[Index(m)] = Get(m) + delta;
    present_.set(Index(m));
  }

  bool Has(Metric m) const { return present_.test(Index(m)); }

  /// Value of `m`, or 0.0 when unset.
  double Get(Metric m) const {
    return present_.test(Index(m)) ? values_[Index(m)] : 0.0;
  }

  /// Copies every metric present in `other` into this registry and folds
  /// `other`'s histogram samples into this one's.
  void Merge(const MetricsRegistry& other) {
    for (size_t i = 0; i < kNumMetrics; ++i) {
      if (other.present_.test(i)) {
        values_[i] = other.values_[i];
        present_.set(i);
      }
    }
    for (size_t i = 0; i < kNumHistograms; ++i) {
      if (other.hists_[i].count() != 0) hists_[i].Merge(other.hists_[i]);
    }
  }

  size_t size() const { return present_.count(); }

  /// The histogram slot for `h`. Record() and Merge() on the returned
  /// reference are thread-safe; the registry itself never locks.
  LogHistogram& histogram(Hist h) { return hists_[HistIndex(h)]; }
  const LogHistogram& histogram(Hist h) const { return hists_[HistIndex(h)]; }

  /// Records one sample into histogram `h`.
  void Record(Hist h, double value) { histogram(h).Record(value); }

  /// Number of histograms with at least one sample.
  size_t num_histograms_set() const {
    size_t n = 0;
    for (const LogHistogram& hist : hists_) {
      if (hist.count() != 0) ++n;
    }
    return n;
  }

  /// Invokes `fn(const HistogramDef&, const LogHistogram&)` for each
  /// histogram with at least one sample, in declaration order.
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    const auto& defs = AllHistogramDefs();
    for (size_t i = 0; i < kNumHistograms; ++i) {
      if (hists_[i].count() != 0) fn(defs[i], hists_[i]);
    }
  }

  /// Invokes `fn(const MetricDef&, double value)` for each set metric, in
  /// declaration order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const auto& defs = AllMetricDefs();
    for (size_t i = 0; i < kNumMetrics; ++i) {
      if (present_.test(i)) fn(defs[i], values_[i]);
    }
  }

  /// Markdown tables documenting every *declared* metric and histogram
  /// (name, unit, owner, description) — the generated source of the
  /// DESIGN.md observability appendix.
  static std::string Describe();

 private:
  static size_t Index(Metric m) { return static_cast<size_t>(m); }
  static size_t HistIndex(Hist h) { return static_cast<size_t>(h); }

  std::array<double, kNumMetrics> values_{};
  std::bitset<kNumMetrics> present_;
  std::array<LogHistogram, kNumHistograms> hists_;
};

}  // namespace tempo

#endif  // TEMPO_OBS_METRICS_H_
