#ifndef TEMPO_PARALLEL_PARALLEL_FOR_H_
#define TEMPO_PARALLEL_PARALLEL_FOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "parallel/thread_pool.h"

namespace tempo {

/// Where the parallel wall-clock went: `busy_seconds` sums the time workers
/// spent inside morsel bodies; `wall_seconds` is the coordinator-observed
/// span of the parallel regions. Efficiency near 1.0 means the workers were
/// saturated; near 1/num_threads means the region was serialized.
struct MorselStats {
  uint64_t morsels_dispatched = 0;
  double busy_seconds = 0.0;
  double wall_seconds = 0.0;
  /// Busy seconds by pool worker index; [0] also absorbs morsels executed
  /// inline on a coordinator (serial fallback). Sized lazily to the highest
  /// worker seen, so serial runs carry an empty vector.
  std::vector<double> per_worker_busy;
  /// Distribution of individual morsel durations (microseconds); the mean
  /// matches busy_seconds/morsels_dispatched but the tail exposes skewed
  /// morsels that the aggregate hides.
  LogHistogram duration_hist;

  void Merge(const MorselStats& other) {
    morsels_dispatched += other.morsels_dispatched;
    busy_seconds += other.busy_seconds;
    wall_seconds += other.wall_seconds;
    if (per_worker_busy.size() < other.per_worker_busy.size()) {
      per_worker_busy.resize(other.per_worker_busy.size(), 0.0);
    }
    for (size_t i = 0; i < other.per_worker_busy.size(); ++i) {
      per_worker_busy[i] += other.per_worker_busy[i];
    }
    duration_hist.Merge(other.duration_hist);
  }

  double Efficiency(uint32_t num_threads) const {
    if (num_threads == 0 || wall_seconds <= 0.0) return 1.0;
    return busy_seconds / (wall_seconds * static_cast<double>(num_threads));
  }
};

/// Live morsel counters of one query, readable concurrently with
/// execution (QueryHandle::Progress). ParallelFor adds a region's morsel
/// count to `total` at dispatch and bumps `completed` as each morsel body
/// returns, so completed/total reflect every region dispatched so far —
/// the denominator grows as the query enters new parallel regions.
struct MorselProgress {
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> total{0};
};

/// Binds `progress` as the calling thread's live morsel counter for every
/// ParallelFor it dispatches, for the lifetime of this object (null is a
/// no-op). Per-thread and innermost-wins, mirroring
/// ScopedAccountantBinding: a query's coordinator installs its handle's
/// counter, and ParallelFor captures it at dispatch so morsels run on pool
/// workers count toward the same query.
class ScopedMorselProgress {
 public:
  explicit ScopedMorselProgress(MorselProgress* progress);
  ~ScopedMorselProgress();

  ScopedMorselProgress(const ScopedMorselProgress&) = delete;
  ScopedMorselProgress& operator=(const ScopedMorselProgress&) = delete;

  /// The counter bound to the calling thread; null when none.
  static MorselProgress* Current();

 private:
  MorselProgress* prev_;
};

/// Splits [0, n) into morsels of `morsel_size` indices and runs
/// `fn(morsel_index, begin, end)` for each. With a pool, morsels run on the
/// workers and this call blocks until all complete; with a null pool they
/// run inline in ascending order. Morsel boundaries are identical either
/// way (morsel m covers [m*morsel_size, min(n, (m+1)*morsel_size))), so a
/// caller that buffers per-morsel results and merges them by morsel index
/// gets deterministic, execution-order-independent output.
///
/// Returns the error of the lowest-indexed failing morsel, or OK. `stats`,
/// when non-null, accumulates dispatch counts and busy/wall time.
Status ParallelFor(ThreadPool* pool, size_t n, size_t morsel_size,
                   const std::function<Status(size_t morsel, size_t begin,
                                              size_t end)>& fn,
                   MorselStats* stats = nullptr);

}  // namespace tempo

#endif  // TEMPO_PARALLEL_PARALLEL_FOR_H_
