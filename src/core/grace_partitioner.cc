#include "core/grace_partitioner.h"

#include <algorithm>

#include "relation/tuple_view.h"

namespace tempo {

namespace {

/// One morsel of routed input: raw record bytes in page order (views into
/// the coordinator's wave pages, which stay pinned until the wave's appends
/// are replayed) plus the partition range [first, last] each record lands
/// in. Computed on workers; consumed (appended) by the coordinator in
/// morsel order. No Tuple is ever materialized — records are routed by
/// interval, which a TupleView reads with two loads.
struct RoutedMorsel {
  std::vector<std::string_view> records;
  std::vector<std::pair<uint32_t, uint32_t>> dests;
};

}  // namespace

StatusOr<PartitionedRelation> GracePartition(StoredRelation* input,
                                             const PartitionSpec& spec,
                                             uint32_t buffer_pages,
                                             PlacementPolicy policy,
                                             const std::string& name_prefix,
                                             Scheduler* scheduler,
                                             MorselStats* morsel_stats) {
  const ParallelOptions parallel = SchedulerParallel(scheduler);
  ThreadPool* pool = SchedulerPool(scheduler);
  const size_t n = spec.num_partitions();
  if (buffer_pages < n + 1) {
    return Status::InvalidArgument(
        "partitioning " + std::to_string(n) +
        " ways needs at least " + std::to_string(n + 1) + " buffer pages");
  }
  if (input->HasUnflushedAppends()) {
    return Status::FailedPrecondition(
        "input must be flushed before partitioning");
  }

  PartitionedRelation result;
  result.parts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    result.parts.emplace_back(new StoredRelation(
        input->disk(), input->schema(),
        name_prefix + ".part" + std::to_string(i)));
  }

  const RecordLayout& layout = input->schema().layout();
  auto route_of = [&](const TupleView& v) -> std::pair<uint32_t, uint32_t> {
    Interval iv = v.interval();
    uint32_t last = static_cast<uint32_t>(spec.LastOverlapping(iv));
    uint32_t first = policy == PlacementPolicy::kLastOverlap
                         ? last
                         : static_cast<uint32_t>(spec.FirstOverlapping(iv));
    return {first, last};
  };
  auto append_routed = [&](std::string_view record, uint32_t first,
                           uint32_t last) -> Status {
    for (uint32_t idx = first; idx <= last; ++idx) {
      TEMPO_RETURN_IF_ERROR(result.parts[idx]->AppendRecord(record));
      ++result.tuples_written;
    }
    ++result.records_routed_zero_copy;
    return Status::OK();
  };

  const uint32_t pages = input->num_pages();

  if (parallel.enabled() && pool != nullptr) {
    // Morsel-parallel: the coordinator reads a wave of pages in scan order,
    // workers decode each morsel and compute destinations, then the
    // coordinator replays the appends in page order.
    const size_t morsel_pages = std::max<uint32_t>(1, parallel.morsel_pages);
    const size_t wave_pages =
        morsel_pages * std::max<uint32_t>(1, 4 * parallel.num_threads);
    std::vector<Page> wave;
    std::vector<RoutedMorsel> routed;
    for (uint32_t wave_start = 0; wave_start < pages;
         wave_start += static_cast<uint32_t>(wave_pages)) {
      const uint32_t wave_end = std::min<uint32_t>(
          pages, wave_start + static_cast<uint32_t>(wave_pages));
      wave.resize(wave_end - wave_start);
      for (uint32_t p = wave_start; p < wave_end; ++p) {
        TEMPO_RETURN_IF_ERROR(input->ReadPage(p, &wave[p - wave_start]));
      }
      const size_t num_morsels =
          (wave.size() + morsel_pages - 1) / morsel_pages;
      routed.assign(num_morsels, RoutedMorsel{});
      TEMPO_RETURN_IF_ERROR(ParallelFor(
          pool, wave.size(), morsel_pages,
          [&](size_t m, size_t begin, size_t end) -> Status {
            RoutedMorsel& out = routed[m];
            for (size_t i = begin; i < end; ++i) {
              const Page& page = wave[i];
              for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
                std::string_view rec = page.GetRecord(slot);
                TEMPO_ASSIGN_OR_RETURN(
                    TupleView v,
                    TupleView::Make(layout, rec.data(), rec.size()));
                out.records.push_back(rec);
                out.dests.push_back(route_of(v));
              }
            }
            return Status::OK();
          },
          morsel_stats));
      for (const RoutedMorsel& m : routed) {
        for (size_t i = 0; i < m.records.size(); ++i) {
          TEMPO_RETURN_IF_ERROR(
              append_routed(m.records[i], m.dests[i].first, m.dests[i].second));
        }
      }
    }
  } else {
    // One input page at a time; each StoredRelation buffers one output page
    // per partition and flushes it as it fills — the paper's "when the
    // pages for a given partition become filled they are flushed to disk".
    // Records are routed straight off the input page: the view reads the
    // interval in place and the raw bytes are re-appended verbatim.
    for (uint32_t p = 0; p < pages; ++p) {
      Page page;
      TEMPO_RETURN_IF_ERROR(input->ReadPage(p, &page));
      for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
        std::string_view rec = page.GetRecord(slot);
        TEMPO_ASSIGN_OR_RETURN(TupleView v,
                               TupleView::Make(layout, rec.data(), rec.size()));
        auto [first, last] = route_of(v);
        TEMPO_RETURN_IF_ERROR(append_routed(rec, first, last));
      }
    }
  }
  for (auto& part : result.parts) {
    TEMPO_RETURN_IF_ERROR(part->Flush());
  }
  return result;
}

}  // namespace tempo
