#ifndef TEMPO_OBS_EXPORT_H_
#define TEMPO_OBS_EXPORT_H_

#include <string>

#include "common/json.h"
#include "common/status.h"
#include "obs/exec_context.h"
#include "storage/io_accountant.h"

namespace tempo {

/// Knobs for the machine-readable trace export.
struct TraceExportOptions {
  /// Weights used to price each span's charged I/O into the `cost` args,
  /// matching the EXPLAIN ANALYZE "act cost" column.
  CostModel cost_model = CostModel::Ratio(5.0);

  /// When true, span timestamps/durations come from measured wall-clock
  /// and the export includes busy-time counters and latency histograms.
  /// When false, the timeline is *synthesized from charged I/O op counts*
  /// (1 us per op, minimum 1 us per span) and every wall-clock-derived
  /// field is omitted — under the per-file head model this makes the
  /// entire document deterministic for a fixed seed, which is what the
  /// golden-trace test and bench_compare baselines rely on.
  bool include_timing = true;
};

/// Serializes the context's span tree as a Chrome trace-event JSON
/// document (the "JSON Array Format" object flavor) loadable by Perfetto
/// and chrome://tracing:
///
///   - one "X" (complete) event per span node, nested via the synthetic
///     timeline, with args carrying phase, label, entry count, exclusive
///     charged I/O split random/sequential, priced exclusive+inclusive
///     cost, planner estimate and buffer hit/miss deltas;
///   - "M" metadata naming the process and the span-tree thread;
///   - non-event top-level keys (ignored by trace viewers): the schema
///     version, export config, the run's metrics snapshot
///     (MetricsToJson), and the tree's total inclusive I/O.
Json TraceToJson(const ExecContext& ctx, const TraceExportOptions& options = {});

/// Snapshot of a metrics registry: scalar metrics under "scalars" (stable
/// declared names, declaration order) and histogram distributions under
/// "histograms". With include_timing false, wall-clock-valued ("us")
/// histograms are reduced to their deterministic sample count.
Json MetricsToJson(const MetricsRegistry& metrics, bool include_timing = true);

/// One histogram's snapshot: unit, count, sum/min/max/mean, and the
/// non-empty log buckets as {le, count} pairs (`le` is the exclusive
/// upper bound; the overflow bucket serializes le as the string "inf").
Json HistogramToJson(const HistogramDef& def, const LogHistogram& hist);

/// {"random_reads": ..., "sequential_reads": ..., "random_writes": ...,
///  "sequential_writes": ...} — the four charged counters.
Json IoStatsToJson(const IoStats& io);

/// Value of TEMPO_TRACE_OUT, or "" when unset/empty. When set, bench
/// runners (and anything else that calls MaybeWriteTraceFromEnv) write
/// the Perfetto trace of each traced run there.
std::string TraceOutPath();

/// Serializes TraceToJson(ctx, options) to `path` (pretty-printed).
Status WriteTraceFile(const ExecContext& ctx, const std::string& path,
                      const TraceExportOptions& options = {});

/// Derives the per-query trace path the concurrent service writes under
/// one TEMPO_TRACE_OUT setting: inserts ".q<query_id>" before the file
/// extension ("trace.json" -> "trace.q7.json"; extensionless paths get
/// the suffix appended), so N concurrent queries produce N trace files
/// instead of clobbering a single one.
std::string PerQueryTracePath(const std::string& base, uint64_t query_id);

/// Writes the trace to TraceOutPath() if the env var is set; returns the
/// write status (OK when the env var is unset — the common no-export
/// path costs one getenv).
Status MaybeWriteTraceFromEnv(const ExecContext& ctx,
                              const TraceExportOptions& options = {});

}  // namespace tempo

#endif  // TEMPO_OBS_EXPORT_H_
