#ifndef TEMPO_COMMON_HISTOGRAM_H_
#define TEMPO_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace tempo {

/// A log-bucketed histogram of non-negative samples (latencies in
/// microseconds, cache occupancies in tuples, admission waits).
///
/// Bucket 0 holds samples < 1; bucket i (1 <= i < kNumBuckets-1) holds
/// samples in [2^(i-1), 2^i); the last bucket absorbs everything larger.
/// Doubling buckets keep the relative error of any quantile estimate
/// bounded by 2x over ~nine decades, which is all a regression harness
/// needs to spot a latency distribution shifting.
///
/// Thread-safe: Record and Merge may race with each other and with
/// readers (a snapshot may be taken while the owner still records).
/// All counters are relaxed atomics — per-bucket counts are exact under
/// concurrency; count/sum/min/max are folded with CAS loops. Readers see
/// a possibly-torn-but-monotonic snapshot, which is fine for export
/// (exports happen after the run quiesces).
///
/// Copying takes a relaxed snapshot, so the histogram can live inside
/// freely-copied stat structs (MetricsRegistry).
class LogHistogram {
 public:
  static constexpr size_t kNumBuckets = 32;

  LogHistogram() = default;
  LogHistogram(const LogHistogram& other) { CopyFrom(other); }
  LogHistogram& operator=(const LogHistogram& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Index of the bucket `value` falls into (negatives clamp to 0).
  static size_t BucketIndex(double value) {
    if (!(value >= 1.0)) return 0;
    size_t i = 1;
    while (i + 1 < kNumBuckets &&
           value >= static_cast<double>(uint64_t{1} << i)) {
      ++i;
    }
    return i;
  }

  /// Exclusive upper bound of bucket `i`; +inf for the overflow bucket.
  static double BucketUpperBound(size_t i) {
    if (i + 1 >= kNumBuckets) return std::numeric_limits<double>::infinity();
    return static_cast<double>(uint64_t{1} << i);
  }

  void Record(double value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    AtomicAdd(&sum_, value);
    AtomicMin(&min_, value);
    AtomicMax(&max_, value);
  }

  void Merge(const LogHistogram& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
      if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
    uint64_t n = other.count_.load(std::memory_order_relaxed);
    if (n == 0) return;
    count_.fetch_add(n, std::memory_order_relaxed);
    AtomicAdd(&sum_, other.sum_.load(std::memory_order_relaxed));
    AtomicMin(&min_, other.min_.load(std::memory_order_relaxed));
    AtomicMax(&max_, other.max_.load(std::memory_order_relaxed));
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded sample; 0 when empty.
  double min() const {
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  }
  double max() const {
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  static void AtomicAdd(std::atomic<double>* target, double delta) {
    double cur = target->load(std::memory_order_relaxed);
    while (!target->compare_exchange_weak(cur, cur + delta,
                                          std::memory_order_relaxed)) {
    }
  }
  static void AtomicMin(std::atomic<double>* target, double value) {
    double cur = target->load(std::memory_order_relaxed);
    while (value < cur && !target->compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<double>* target, double value) {
    double cur = target->load(std::memory_order_relaxed);
    while (value > cur && !target->compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  void CopyFrom(const LogHistogram& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    count_.store(other.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sum_.store(other.sum_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    min_.store(other.min_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    max_.store(other.max_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  }

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Estimates the q-quantile (q in [0, 1]) from the bucket counts: walks
/// the buckets until the cumulative count reaches q * count and reports
/// that bucket's upper bound, clamped into [min, max]. The doubling
/// buckets bound the relative error by 2x — good enough for the p50/p99
/// latencies the bench harness and regression gate track. Returns 0 for
/// an empty histogram.
inline double ApproxQuantile(const LogHistogram& hist, double q) {
  const uint64_t n = hist.count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based; ceil so p0 maps to the 1st sample.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  uint64_t seen = 0;
  for (size_t i = 0; i < LogHistogram::kNumBuckets; ++i) {
    seen += hist.bucket_count(i);
    if (seen >= rank) {
      double upper = LogHistogram::BucketUpperBound(i);
      if (upper > hist.max()) upper = hist.max();
      if (upper < hist.min()) upper = hist.min();
      return upper;
    }
  }
  return hist.max();
}

}  // namespace tempo

#endif  // TEMPO_COMMON_HISTOGRAM_H_
