#ifndef TEMPO_OBS_EXEC_CONTEXT_H_
#define TEMPO_OBS_EXEC_CONTEXT_H_

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_manager.h"
#include "storage/io_accountant.h"

namespace tempo {

class Scheduler;

/// Per-run observability context, threaded through every executor as an
/// optional `ExecContext* ctx` parameter. A null context is the
/// zero-overhead mode: SpanIf() returns an inert span, no counter is
/// snapshotted, and the executor's behavior — charged I/O, output bytes —
/// is bit-identical to a run without the context.
///
/// The context carries
///   - a Tracer of phase-scoped spans (wall-clock, exclusive charged I/O
///     split random/sequential — each span's delta of the bound
///     accountant — and buffer hit/miss deltas),
///   - a MetricsRegistry of typed counters and log-bucketed histograms,
/// and feeds the ExplainAnalyze renderer.
class ExecContext {
 public:
  ExecContext() = default;

  /// Uninstalls the page-read latency sink from the bound accountant (if
  /// still ours) so the accountant never dereferences a dead registry.
  ~ExecContext() {
    if (accountant_ != nullptr) {
      accountant_->ClearLatencySink(
          &metrics_.histogram(Hist::kPageReadLatencyUs));
    }
  }

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Binds the accountant whose counters spans take their I/O deltas
  /// from: the ledger the run's own thread charges. Spans opened with no
  /// accountant bound still measure wall-clock but report zero I/O; null
  /// unbinds. Binding also installs this context's page-read latency
  /// histogram as the accountant's sink, so Disk starts timing reads; the
  /// destructor uninstalls it.
  void BindAccountant(IoAccountant* accountant) {
    if (accountant_ != nullptr && accountant_ != accountant) {
      accountant_->ClearLatencySink(
          &metrics_.histogram(Hist::kPageReadLatencyUs));
    }
    accountant_ = accountant;
    if (accountant_ != nullptr) {
      accountant_->SetLatencySink(
          &metrics_.histogram(Hist::kPageReadLatencyUs));
    }
  }
  IoAccountant* accountant() const { return accountant_; }

  /// Does nothing: every executor phase runs on the calling thread. Kept
  /// so callers that still build a Scheduler (perfbench) compile.
  void SetScheduler(Scheduler* /*ignored*/) {}

  /// Opens a span under the innermost open span (or the root), measured
  /// against the bound accountant. Prefer the null-safe free function
  /// SpanIf().
  TraceSpan Span(Phase phase, std::string label = "") {
    return TraceSpan(&tracer_,
                     tracer_.Begin(phase, std::move(label), accountant_));
  }

  /// Records a planner estimate against the first span of `phase`,
  /// whether or not it has started yet.
  void AnnotateEstimate(Phase phase, double cost) {
    tracer_.AnnotateEstimate(phase, cost);
  }

 private:
  Tracer tracer_;
  MetricsRegistry metrics_;
  IoAccountant* accountant_ = nullptr;
};

/// RAII registration of a buffer pool with a (possibly null) context's
/// tracer, so spans report the pool's hit/miss deltas.
class ScopedPoolRegistration {
 public:
  ScopedPoolRegistration(ExecContext* ctx, const BufferManager* pool)
      : ctx_(ctx), pool_(pool) {
    if (ctx_ != nullptr) ctx_->tracer().RegisterBufferPool(pool_);
  }
  ~ScopedPoolRegistration() {
    if (ctx_ != nullptr) ctx_->tracer().UnregisterBufferPool(pool_);
  }
  ScopedPoolRegistration(const ScopedPoolRegistration&) = delete;
  ScopedPoolRegistration& operator=(const ScopedPoolRegistration&) = delete;

 private:
  ExecContext* ctx_;
  const BufferManager* pool_;
};

/// Null-safe span helper: an inert TraceSpan when `ctx` is null.
inline TraceSpan SpanIf(ExecContext* ctx, Phase phase, std::string label = "") {
  if (ctx == nullptr) return TraceSpan();
  return ctx->Span(phase, std::move(label));
}

/// Null-safe metric write helpers.
inline void SetMetric(ExecContext* ctx, Metric m, double value) {
  if (ctx != nullptr) ctx->metrics().Set(m, value);
}
inline void AddMetric(ExecContext* ctx, Metric m, double delta) {
  if (ctx != nullptr) ctx->metrics().Add(m, delta);
}
inline void RecordHistogram(ExecContext* ctx, Hist h, double value) {
  if (ctx != nullptr) ctx->metrics().Record(h, value);
}

}  // namespace tempo

#endif  // TEMPO_OBS_EXEC_CONTEXT_H_
