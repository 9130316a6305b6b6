#ifndef TEMPO_PARALLEL_SCHEDULER_H_
#define TEMPO_PARALLEL_SCHEDULER_H_

#include <cstdint>
#include <memory>

#include "common/statusor.h"
#include "parallel/thread_pool.h"

namespace tempo {

/// Threading configuration of a Scheduler. This is the *single* resolved
/// source of truth for worker threads: executors take no thread count —
/// they read the scheduler handle carried by their ExecContext (serial
/// when absent), so one machine-wide setting governs every concurrent
/// query instead of each call site guessing its own.
struct SchedulerConfig {
  /// Worker threads for CPU-bound morsels. 1 = the paper-faithful serial
  /// mode; 0 = unspecified, deferring to TEMPO_BENCH_THREADS (see
  /// ResolveSchedulerConfig).
  uint32_t num_threads = 1;

  /// Unread: no executor phase dispatches morsels. Kept because existing
  /// callers name it.
  uint32_t morsel_pages = 4;
};

/// Resolves `requested` against the TEMPO_BENCH_THREADS environment knob,
/// both through the strict parser in common/env.h. Exactly one of the two
/// may decide the thread count:
///
///   - env unset, requested 0        -> 1 (serial)
///   - env unset, requested N        -> N
///   - env set,   requested 0        -> env
///   - env set,   requested == env   -> that value
///   - env set,   requested != env   -> InvalidArgument (the two knobs
///     used to disagree silently; now the conflict is an error naming
///     both values)
StatusOr<SchedulerConfig> ResolveSchedulerConfig(SchedulerConfig requested);

/// A shared execution scheduler: one work-stealing ThreadPool that every
/// concurrent query multiplexes its CPU-bound morsels onto, instead of
/// each query spawning (and tearing down) a private pool.
///
/// Executors receive the scheduler as a handle on ExecContext
/// (ctx->scheduler()); a null context or a null handle is the serial
/// fallback. The handle is non-owning: the Scheduler must outlive every
/// ExecContext carrying it (the QueryService owns one scheduler for its
/// whole lifetime; tests and benches create one on the stack around
/// their runs).
///
/// No executor phase runs on it: every phase runs on the query's thread
/// in the paper's order, and the scheduler only carries the thread count.
///
/// Determinism: the pool only ever runs CPU-side morsel bodies — all
/// charged I/O stays on each query's coordinating thread in the paper's
/// order, and ParallelFor callers merge per-morsel results by morsel
/// index — so output bytes and charged IoStats are independent of the
/// thread count and of which worker stole which morsel.
class Scheduler {
 public:
  /// Constructs from an already-resolved config (no environment access).
  /// In serial mode (num_threads <= 1) no pool is created.
  explicit Scheduler(const SchedulerConfig& config)
      : config_(config) {
    if (config_.num_threads == 0) config_.num_threads = 1;
    if (config_.num_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    }
  }

  /// Resolves `requested` against TEMPO_BENCH_THREADS (erroring on a
  /// conflict) and constructs the scheduler.
  static StatusOr<std::unique_ptr<Scheduler>> Create(
      SchedulerConfig requested);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  uint32_t num_threads() const { return config_.num_threads; }
  const SchedulerConfig& config() const { return config_; }

  /// The shared work-stealing pool; null in serial mode (ParallelFor
  /// treats a null pool as "run inline").
  ThreadPool* pool() { return pool_.get(); }

 private:
  SchedulerConfig config_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace tempo

#endif  // TEMPO_PARALLEL_SCHEDULER_H_
