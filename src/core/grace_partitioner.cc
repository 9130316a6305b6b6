#include "core/grace_partitioner.h"

#include "relation/tuple_view.h"

namespace tempo {

StatusOr<PartitionedRelation> GracePartition(StoredRelation* input,
                                             const PartitionSpec& spec,
                                             uint32_t buffer_pages,
                                             PlacementPolicy policy,
                                             const std::string& name_prefix) {
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

  // One input page at a time; each StoredRelation buffers one output page
  // per partition and flushes it as it fills — the paper's "when the pages
  // for a given partition become filled they are flushed to disk". Records
  // are routed straight off the input page: the view reads the interval in
  // place and the raw bytes are re-appended verbatim.
  TEMPO_RETURN_IF_ERROR(input->ForEachView([&](const TupleView& v) -> Status {
    const Interval iv = v.interval();
    const size_t last = spec.LastOverlapping(iv);
    const size_t first = policy == PlacementPolicy::kLastOverlap
                             ? last
                             : spec.FirstOverlapping(iv);
    for (size_t idx = first; idx <= last; ++idx) {
      TEMPO_RETURN_IF_ERROR(result.parts[idx]->AppendRecord(v.record()));
      ++result.tuples_written;
    }
    return Status::OK();
  }));
  for (auto& part : result.parts) {
    TEMPO_RETURN_IF_ERROR(part->Flush());
  }
  return result;
}

}  // namespace tempo
