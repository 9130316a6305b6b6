#include "core/tuple_cache.h"

namespace tempo {

namespace {
// Conservative per-record page overhead: 4-byte slot.
constexpr size_t kSlotOverhead = 4;
constexpr size_t kPagePayload = kPageSize - 4;
}  // namespace

TupleCache::TupleCache(Disk* disk, const Schema& schema, std::string name,
                       uint32_t memory_pages)
    : disk_(disk),
      schema_(schema),
      name_(std::move(name)),
      memory_pages_(memory_pages == 0 ? 1 : memory_pages) {}

Status TupleCache::AddRecord(std::string_view record) {
  size_t bytes = record.size() + kSlotOverhead;
  if (memory_bytes_ + bytes > kPagePayload * memory_pages_ &&
      !memory_views_.empty()) {
    // The in-memory cache area is full: flush it to the spill file and
    // start afresh. This invalidates outstanding memory views — spills
    // only happen while a generation is being *built*; the consumption
    // pass never adds to the generation it probes.
    if (spill_ == nullptr) {
      spill_.reset(new StoredRelation(disk_, schema_, name_ + ".cache"));
    }
    for (const TupleView& cached : memory_views_) {
      TEMPO_RETURN_IF_ERROR(spill_->AppendRecord(cached.record()));
    }
    TEMPO_RETURN_IF_ERROR(spill_->Flush());
    memory_records_.Clear();
    memory_views_.clear();
    memory_bytes_ = 0;
  }
  memory_views_.push_back(TupleView::Trusted(
      schema_.layout(), memory_records_.Copy(record), record.size()));
  memory_bytes_ += bytes;
  ++total_tuples_;
  return Status::OK();
}

StatusOr<PagePin> TupleCache::PinSpilledPage(uint32_t page_no) {
  TEMPO_CHECK(spill_ != nullptr);
  return spill_->PinPage(page_no);
}

}  // namespace tempo
