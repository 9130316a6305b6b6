#include "join/build_area.h"

#include <cstring>

namespace tempo {

const char* RecordArena::Copy(std::string_view record) {
  TEMPO_DCHECK(record.size() <= kBlockBytes);
  if (blocks_.empty() || used_ + record.size() > kBlockBytes) {
    if (!blocks_.empty()) {
      ++block_;
      used_ = 0;
    }
    if (block_ == blocks_.size()) {
      blocks_.push_back(std::make_unique<char[]>(kBlockBytes));
    }
  }
  char* dst = blocks_[block_].get() + used_;
  std::memcpy(dst, record.data(), record.size());
  used_ += record.size();
  return dst;
}

Status BuildArea::AddPage(const Page& page) {
  const RecordLayout& layout = schema_->layout();
  const size_t rows_before = size();
  const size_t bytes_before = bytes_;
  const RecordArena::Mark mark = arena_.mark();
  for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
    std::string_view rec = page.GetRecord(slot);
    const char* copy = arena_.Copy(rec);
    auto view = TupleView::Make(layout, copy, rec.size());
    if (!view.ok()) {
      views_.resize(rows_before);
      key_hashes_.resize(rows_before);
      starts_.resize(rows_before);
      ends_.resize(rows_before);
      bytes_ = bytes_before;
      arena_.Rewind(mark);
      return view.status();
    }
    PushRow(*view);
  }
  return Status::OK();
}

void BuildArea::PushRow(const TupleView& v) {
  const Interval iv = v.interval();
  views_.push_back(v);
  key_hashes_.push_back(v.HashAttrs(*key_attrs_));
  starts_.push_back(iv.start());
  ends_.push_back(iv.end());
  bytes_ += v.record().size() + kSlotOverhead;
}

void BuildArea::Repack(const Interval& p) {
  spare_.Clear();
  size_t kept = 0;
  bytes_ = 0;
  for (size_t i = 0; i < size(); ++i) {
    if (!OverlapsRow(i, p)) continue;
    const std::string_view rec = views_[i].record();
    views_[kept] =
        TupleView::Trusted(schema_->layout(), spare_.Copy(rec), rec.size());
    key_hashes_[kept] = key_hashes_[i];
    starts_[kept] = starts_[i];
    ends_[kept] = ends_[i];
    bytes_ += rec.size() + kSlotOverhead;
    ++kept;
  }
  views_.resize(kept);
  key_hashes_.resize(kept);
  starts_.resize(kept);
  ends_.resize(kept);
  std::swap(arena_, spare_);
}

void BuildArea::Clear() {
  arena_.Clear();
  views_.clear();
  key_hashes_.clear();
  starts_.clear();
  ends_.clear();
  bytes_ = 0;
}

}  // namespace tempo
