#ifndef TEMPO_OBS_EXEC_CONTEXT_H_
#define TEMPO_OBS_EXEC_CONTEXT_H_

#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_manager.h"
#include "storage/io_accountant.h"

namespace tempo {

class Scheduler;

/// Per-run observability context, threaded through every executor as an
/// optional `ExecContext* ctx` parameter. A null context is the
/// zero-overhead mode: SpanIf() returns an inert span, no collector is
/// registered on the accountant, and the executor's behavior — charged
/// I/O, output bytes — is bit-identical to a run without the context.
///
/// The context carries
///   - a Tracer of phase-scoped spans (wall-clock, exclusive charged I/O
///     split random/sequential, buffer hit/miss deltas),
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

  /// Binds the disk's accountant so spans can attribute charged I/O.
  /// Call once before execution; spans opened with no accountant bound
  /// still measure wall-clock but report zero I/O. Binding also installs
  /// this context's page-read latency histogram as the accountant's sink,
  /// so Disk starts timing reads; the destructor uninstalls it.
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

  /// Registers a buffer pool so spans can report hit/miss deltas.
  /// Unregister before destroying the pool; its final counters are folded
  /// into a retired total so deltas stay monotonic.
  void RegisterBufferPool(const BufferManager* pool);
  void UnregisterBufferPool(const BufferManager* pool);

  /// Combined counters of all pools ever registered (live + retired).
  BufferCounters TotalBufferCounters() const;

  /// Opens a span under the innermost open span on this thread (or the
  /// root). Prefer the null-safe free function SpanIf().
  TraceSpan Span(Phase phase, std::string label = "");

  /// Opens a span with an explicit parent rather than the innermost open
  /// span on this thread (the radix executor nests its phases under its
  /// root this way).
  TraceSpan SpanUnder(const TraceSpan& parent, Phase phase,
                      std::string label = "");

  /// Records a planner estimate against the first span of `phase`,
  /// whether or not it has started yet.
  void AnnotateEstimate(Phase phase, double cost) {
    tracer_.AnnotateEstimate(phase, cost);
  }

 private:
  TraceSpan MakeSpan(SpanNode* node);

  Tracer tracer_;
  MetricsRegistry metrics_;
  IoAccountant* accountant_ = nullptr;

  mutable std::mutex pools_mu_;
  std::vector<const BufferManager*> pools_;
  BufferCounters retired_;
};

/// RAII registration of a buffer pool with a (possibly null) context.
class ScopedPoolRegistration {
 public:
  ScopedPoolRegistration(ExecContext* ctx, const BufferManager* pool)
      : ctx_(ctx), pool_(pool) {
    if (ctx_ != nullptr) ctx_->RegisterBufferPool(pool_);
  }
  ~ScopedPoolRegistration() {
    if (ctx_ != nullptr) ctx_->UnregisterBufferPool(pool_);
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

/// Null-safe explicit-parent span helper. Falls back to thread-local
/// parenting when `parent` is inert (e.g. the serial path where the
/// "parent" span lives on the same thread anyway).
inline TraceSpan SpanUnderIf(ExecContext* ctx, const TraceSpan& parent,
                             Phase phase, std::string label = "") {
  if (ctx == nullptr) return TraceSpan();
  if (!parent.active()) return ctx->Span(phase, std::move(label));
  return ctx->SpanUnder(parent, phase, std::move(label));
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
