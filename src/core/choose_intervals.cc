#include "core/choose_intervals.h"

#include <algorithm>
#include <utility>

namespace tempo {

CoverageIndex::CoverageIndex(const std::vector<Interval>& samples) {
  if (samples.empty()) return;

  // Coverage deltas at interval endpoints: +1 at start, -1 past end, in
  // one array sorted by chronon. Each distinct chronon starts a segment,
  // including one whose deltas net to zero.
  std::vector<std::pair<Chronon, int64_t>> deltas;
  deltas.reserve(2 * samples.size());
  for (const Interval& iv : samples) {
    deltas.emplace_back(iv.start(), 1);
    if (iv.end() != kChrononMax) deltas.emplace_back(iv.end() + 1, -1);
  }
  std::sort(deltas.begin(), deltas.end());

  // Piecewise-constant coverage segments [b_k, b_{k+1} - 1]; the total is
  // the size of the covered-chronon multiset the paper's pseudocode
  // materializes.
  int64_t coverage = 0;
  size_t i = 0;
  while (i < deltas.size()) {
    const Chronon seg_start = deltas[i].first;
    for (; i < deltas.size() && deltas[i].first == seg_start; ++i) {
      coverage += deltas[i].second;
    }
    const Chronon seg_end =
        i == deltas.size() ? seg_start : deltas[i].first - 1;
    if (coverage > 0 && seg_end >= seg_start) {
      Segment seg;
      seg.start = seg_start;
      seg.end = seg_end;
      seg.coverage = coverage;
      seg.cum_before = total_;
      segments_.push_back(seg);
      unsigned __int128 len =
          static_cast<unsigned __int128>(seg_end - seg_start) + 1;
      total_ += len * static_cast<unsigned __int128>(coverage);
    }
  }
}

PartitionSpec CoverageIndex::Choose(uint32_t num_partitions) const {
  if (segments_.empty() || total_ == 0 || num_partitions <= 1) {
    return PartitionSpec();
  }
  // Equi-depth boundaries: the chronon at multiset position
  // ceil(W * q / n) for q = 1 .. n-1.
  std::vector<Chronon> boundaries;
  size_t seg_idx = 0;
  const Chronon global_max = segments_.back().end;
  for (uint32_t q = 1; q < num_partitions; ++q) {
    unsigned __int128 target =
        (total_ * q + num_partitions - 1) / num_partitions;  // ceil
    if (target == 0) target = 1;
    // Segments and targets are both increasing; advance monotonically.
    while (seg_idx + 1 < segments_.size() &&
           segments_[seg_idx + 1].cum_before < target) {
      ++seg_idx;
    }
    const Segment& seg = segments_[seg_idx];
    unsigned __int128 offset =
        (target - seg.cum_before - 1) /
        static_cast<unsigned __int128>(seg.coverage);
    Chronon boundary = seg.start + static_cast<Chronon>(offset);
    if (boundary >= global_max) continue;  // would create an empty tail
    if (!boundaries.empty() && boundary <= boundaries.back()) continue;
    boundaries.push_back(boundary);
  }
  auto spec = PartitionSpec::FromBoundaries(boundaries);
  TEMPO_CHECK(spec.ok());
  return *std::move(spec);
}

PartitionSpec ChooseIntervals(const std::vector<Interval>& samples,
                              uint32_t num_partitions) {
  return CoverageIndex(samples).Choose(num_partitions);
}

}  // namespace tempo
