#include "core/estimate_cache.h"

#include <cmath>

#include "common/assert.h"

namespace tempo {

namespace {

/// Scales per-partition sample counts by |relation| / |samples|.
std::vector<double> ScaleToTuples(const std::vector<uint64_t>& counts,
                                  size_t num_samples,
                                  uint64_t relation_tuples) {
  const double scale = static_cast<double>(relation_tuples) /
                       static_cast<double>(num_samples);
  std::vector<double> tuples(counts.size(), 0.0);
  for (size_t p = 0; p < counts.size(); ++p) {
    tuples[p] = static_cast<double>(counts[p]) * scale;
  }
  return tuples;
}

}  // namespace

std::vector<double> EstimateCachedTuples(const std::vector<Interval>& samples,
                                         uint64_t relation_tuples,
                                         const PartitionSpec& spec) {
  const size_t n = spec.num_partitions();
  if (samples.empty() || n <= 1) return std::vector<double>(n, 0.0);
  // Count, per partition, the samples that overlap it without being stored
  // in it (i.e. every overlapped partition except the last). A difference
  // array keeps this O(1) per sample.
  std::vector<int64_t> diff(n + 1, 0);
  for (const Interval& iv : samples) {
    size_t first = spec.FirstOverlapping(iv);
    size_t last = spec.LastOverlapping(iv);
    if (first < last) {
      diff[first] += 1;
      diff[last] -= 1;  // partitions [first, last-1]
    }
  }
  std::vector<uint64_t> counts(n, 0);
  int64_t running = 0;
  for (size_t p = 0; p < n; ++p) {
    running += diff[p];
    TEMPO_DCHECK(running >= 0);
    counts[p] = static_cast<uint64_t>(running);
  }
  return ScaleToTuples(counts, samples.size(), relation_tuples);
}

std::vector<uint64_t> EstimateCacheSizes(const std::vector<Interval>& samples,
                                         uint64_t relation_tuples,
                                         double tuples_per_page,
                                         const PartitionSpec& spec) {
  TEMPO_CHECK(tuples_per_page > 0);
  const std::vector<double> tuples =
      EstimateCachedTuples(samples, relation_tuples, spec);
  std::vector<uint64_t> pages(tuples.size(), 0);
  for (size_t p = 0; p < tuples.size(); ++p) {
    pages[p] = static_cast<uint64_t>(std::ceil(tuples[p] / tuples_per_page));
  }
  return pages;
}

std::vector<double> EstimateStoredTuples(const std::vector<Interval>& samples,
                                         uint64_t relation_tuples,
                                         const PartitionSpec& spec) {
  std::vector<uint64_t> counts(spec.num_partitions(), 0);
  if (samples.empty()) return std::vector<double>(counts.size(), 0.0);
  for (const Interval& iv : samples) ++counts[spec.LastOverlapping(iv)];
  return ScaleToTuples(counts, samples.size(), relation_tuples);
}

}  // namespace tempo
