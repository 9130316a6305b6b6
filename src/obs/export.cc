#include "obs/export.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>

#include "obs/trace.h"

namespace tempo {

namespace {

// Synthetic-timeline process/thread ids: all span events live on one
// "thread" so viewers nest them by duration.
constexpr int kPid = 1;
constexpr int kSpanTid = 1;

Json MetadataEvent(const char* name, int tid, const char* value) {
  Json e = Json::Object();
  e.Set("name", name);
  e.Set("ph", "M");
  e.Set("pid", kPid);
  e.Set("tid", tid);
  Json args = Json::Object();
  args.Set("name", value);
  e.Set("args", std::move(args));
  return e;
}

struct Exporter {
  const TraceExportOptions& options;
  Json events = Json::Array();

  /// Lays `node` out at timestamp `ts` (microseconds), appends its events,
  /// and returns the node's duration so the caller can advance its cursor.
  ///
  /// include_timing: a span's duration is its measured wall-clock, widened
  /// to cover its children (concurrent siblings sum, so a parent's clock
  /// can undershoot the sequential layout of its subtree).
  /// !include_timing: duration is the span's exclusive charged I/O ops
  /// (min 1) plus its children — deterministic under the per-file head
  /// model, and still proportional to where the cost went.
  double Layout(const SpanNode& node, double ts) {
    const double self_us =
        options.include_timing
            ? node.stats.wall_seconds * 1e6
            : static_cast<double>(
                  std::max<uint64_t>(1, node.stats.io.total_ops()));
    double cursor = options.include_timing ? ts : ts + self_us;
    double children_us = 0.0;
    for (const auto& child : node.children) {
      const double d = Layout(*child, cursor);
      cursor += d;
      children_us += d;
    }
    const double dur = options.include_timing
                           ? std::max(self_us, children_us)
                           : self_us + children_us;
    events.Append(SpanEvent(node, ts, dur));
    return dur;
  }

  Json SpanEvent(const SpanNode& node, double ts, double dur) const {
    Json e = Json::Object();
    std::string name = PhaseName(node.phase);
    if (!node.label.empty()) name += " [" + node.label + "]";
    e.Set("name", std::move(name));
    e.Set("cat", "phase");
    e.Set("ph", "X");
    e.Set("ts", ts);
    e.Set("dur", dur);
    e.Set("pid", kPid);
    e.Set("tid", kSpanTid);

    Json args = Json::Object();
    args.Set("phase", PhaseName(node.phase));
    if (!node.label.empty()) args.Set("label", node.label);
    args.Set("entered", node.stats.entered);
    args.Set("io_excl", IoStatsToJson(node.stats.io));
    args.Set("cost_excl", node.stats.io.Cost(options.cost_model));
    args.Set("cost_incl", node.InclusiveIo().Cost(options.cost_model));
    if (node.estimated_cost >= 0.0) args.Set("est_cost", node.estimated_cost);
    if (node.stats.buffers.total() != 0) {
      Json buffers = Json::Object();
      buffers.Set("hits", node.stats.buffers.hits);
      buffers.Set("misses", node.stats.buffers.misses);
      args.Set("buffers", std::move(buffers));
    }
    e.Set("args", std::move(args));
    return e;
  }
};

}  // namespace

Json IoStatsToJson(const IoStats& io) {
  Json j = Json::Object();
  j.Set("random_reads", io.random_reads);
  j.Set("sequential_reads", io.sequential_reads);
  j.Set("random_writes", io.random_writes);
  j.Set("sequential_writes", io.sequential_writes);
  return j;
}

Json HistogramToJson(const HistogramDef& def, const LogHistogram& hist) {
  Json j = Json::Object();
  j.Set("unit", def.unit);
  j.Set("count", hist.count());
  j.Set("sum", hist.sum());
  j.Set("min", hist.min());
  j.Set("max", hist.max());
  j.Set("mean", hist.mean());
  Json buckets = Json::Array();
  for (size_t i = 0; i < LogHistogram::kNumBuckets; ++i) {
    const uint64_t n = hist.bucket_count(i);
    if (n == 0) continue;
    Json b = Json::Object();
    const double le = LogHistogram::BucketUpperBound(i);
    if (le == std::numeric_limits<double>::infinity()) {
      b.Set("le", "inf");
    } else {
      b.Set("le", le);
    }
    b.Set("count", n);
    buckets.Append(std::move(b));
  }
  j.Set("buckets", std::move(buckets));
  return j;
}

Json MetricsToJson(const MetricsRegistry& metrics, bool include_timing) {
  Json j = Json::Object();
  Json scalars = Json::Object();
  metrics.ForEach([&](const MetricDef& def, double value) {
    scalars.Set(def.name, value);
  });
  j.Set("scalars", std::move(scalars));
  Json hists = Json::Object();
  metrics.ForEachHistogram([&](const HistogramDef& def,
                               const LogHistogram& hist) {
    if (!include_timing && std::string_view(def.unit) == "us") {
      // Wall-clock-valued distribution: only the sample count is
      // deterministic, so that is all the golden/baseline mode keeps.
      Json reduced = Json::Object();
      reduced.Set("unit", def.unit);
      reduced.Set("count", hist.count());
      hists.Set(def.name, std::move(reduced));
    } else {
      hists.Set(def.name, HistogramToJson(def, hist));
    }
  });
  j.Set("histograms", std::move(hists));
  return j;
}

Json TraceToJson(const ExecContext& ctx, const TraceExportOptions& options) {
  Exporter exporter{options};
  exporter.events.Append(MetadataEvent("process_name", kSpanTid, "tempo"));
  exporter.events.Append(MetadataEvent("thread_name", kSpanTid, "span tree"));

  // Top-level spans (the executor roots) laid out back to back from t=0;
  // the synthetic root itself is not an event.
  double cursor = 0.0;
  for (const auto& child : ctx.tracer().root().children) {
    cursor += exporter.Layout(*child, cursor);
  }

  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(exporter.events));
  doc.Set("displayTimeUnit", "ms");
  doc.Set("schema_version", 1);
  Json config = Json::Object();
  config.Set("cost_model_random_weight", options.cost_model.random_weight);
  config.Set("cost_model_sequential_weight",
             options.cost_model.sequential_weight);
  config.Set("include_timing", options.include_timing);
  doc.Set("config", std::move(config));
  doc.Set("total_io", IoStatsToJson(ctx.tracer().TotalIo()));
  doc.Set("metrics", MetricsToJson(ctx.metrics(), options.include_timing));
  return doc;
}

std::string TraceOutPath() {
  const char* path = std::getenv("TEMPO_TRACE_OUT");
  return path == nullptr ? std::string() : std::string(path);
}

Status WriteTraceFile(const ExecContext& ctx, const std::string& path,
                      const TraceExportOptions& options) {
  const std::string text = TraceToJson(ctx, options).Dump(2) + "\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  out << text;
  out.flush();
  if (!out) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::OK();
}

Status MaybeWriteTraceFromEnv(const ExecContext& ctx,
                              const TraceExportOptions& options) {
  const std::string path = TraceOutPath();
  if (path.empty()) return Status::OK();
  return WriteTraceFile(ctx, path, options);
}

std::string PerQueryTracePath(const std::string& base, uint64_t query_id) {
  const std::string suffix = ".q" + std::to_string(query_id);
  const size_t dot = base.rfind('.');
  const size_t slash = base.find_last_of('/');
  // A dot inside a directory component ("./trace") is not an extension.
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

}  // namespace tempo
