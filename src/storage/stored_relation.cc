#include "storage/stored_relation.h"

#include <algorithm>
#include <cstring>

namespace tempo {

StoredRelation::StoredRelation(Disk* disk, Schema schema, std::string name)
    : disk_(disk), schema_(std::move(schema)), name_(std::move(name)) {
  TEMPO_CHECK(disk != nullptr);
  file_ = disk_->CreateFile(name_);
  cum_tuples_.push_back(0);
}

void DropRelationFile::operator()(StoredRelation* rel) const {
  rel->disk()->DeleteFile(rel->file_id()).ok();
  delete rel;
}

Status StoredRelation::Append(const Tuple& tuple) {
  std::string record;
  tuple.SerializeTo(schema_, &record);
  return AppendRecord(record);
}

Status StoredRelation::AppendRecord(std::string_view record) {
  TEMPO_ASSIGN_OR_RETURN(char* dst, ReserveRecord(record.size()));
  if (!record.empty()) std::memcpy(dst, record.data(), record.size());
  return Status::OK();
}

StatusOr<char*> StoredRelation::ReserveRecord(size_t size) {
  if (size > kMaxRecordSize) {
    return Status::InvalidArgument("record exceeds page capacity (" +
                                   std::to_string(size) + " bytes)");
  }
  if (append_buffer_ != nullptr && !append_buffer_->Fits(size)) {
    TEMPO_RETURN_IF_ERROR(Flush());
  }
  if (append_buffer_ == nullptr) append_buffer_ = Disk::NewPage();
  char* dst = append_buffer_->ReserveRecord(size);
  TEMPO_CHECK(dst != nullptr);
  ++append_buffer_count_;
  ++num_tuples_;
  return dst;
}

Status StoredRelation::AppendAll(const std::vector<Tuple>& tuples) {
  for (const auto& t : tuples) {
    TEMPO_RETURN_IF_ERROR(Append(t));
  }
  return Flush();
}

Status StoredRelation::Flush() {
  if (append_buffer_count_ == 0) return Status::OK();
  // The full page goes to the disk as is; on failure it stays here, so a
  // retried Flush writes the same records.
  TEMPO_RETURN_IF_ERROR(disk_->AppendPage(file_, &append_buffer_).status());
  cum_tuples_.push_back(cum_tuples_.back() + append_buffer_count_);
  append_buffer_count_ = 0;
  return Status::OK();
}

Status StoredRelation::Clear() {
  TEMPO_RETURN_IF_ERROR(disk_->Truncate(file_));
  append_buffer_.reset();
  append_buffer_count_ = 0;
  num_tuples_ = 0;
  cum_tuples_.assign(1, 0);
  return Status::OK();
}

Status StoredRelation::ReadPage(uint32_t page_no, Page* out) {
  return disk_->ReadPage(file_, page_no, out);
}

StatusOr<size_t> StoredRelation::DecodePageViews(const Schema& schema,
                                                 const Page& page,
                                                 PageTupleArena* arena) {
  return arena->AddPage(schema, page);
}

uint32_t StoredRelation::TuplesOnPage(uint32_t page_no) const {
  TEMPO_DCHECK(page_no + 1 < cum_tuples_.size());
  return static_cast<uint32_t>(cum_tuples_[page_no + 1] -
                               cum_tuples_[page_no]);
}

uint32_t StoredRelation::PageOfTuple(uint64_t tuple_index) const {
  TEMPO_DCHECK(tuple_index < cum_tuples_.back());
  auto it = std::upper_bound(cum_tuples_.begin(), cum_tuples_.end(),
                             tuple_index);
  TEMPO_DCHECK(it != cum_tuples_.begin());
  return static_cast<uint32_t>((it - cum_tuples_.begin()) - 1);
}

StatusOr<Interval> StoredRelation::ReadIntervalRandom(uint64_t tuple_index) {
  if (tuple_index >= cum_tuples_.back()) {
    return Status::OutOfRange("tuple index " + std::to_string(tuple_index) +
                              " not flushed to disk");
  }
  const uint32_t page_no = PageOfTuple(tuple_index);
  TEMPO_ASSIGN_OR_RETURN(PagePin page, PinPage(page_no));
  const std::string_view rec = page->GetRecord(
      static_cast<uint16_t>(tuple_index - cum_tuples_[page_no]));
  TEMPO_ASSIGN_OR_RETURN(
      TupleView view,
      TupleView::Make(schema_.layout(), rec.data(), rec.size()));
  return view.interval();
}

StatusOr<std::vector<Tuple>> StoredRelation::ReadAll() {
  std::vector<Tuple> out;
  out.reserve(num_tuples_);
  TEMPO_RETURN_IF_ERROR(ForEachView([&](const TupleView& v) {
    out.push_back(v.Materialize());
    return Status::OK();
  }));
  return out;
}

}  // namespace tempo
