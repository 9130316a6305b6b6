#include "relation/column_extract.h"

#include <cstring>
#include <utility>

namespace tempo {

Status AppendPageViews(const RecordLayout& layout, const Page& page,
                       std::vector<TupleView>* views) {
  for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
    const std::string_view rec = page.GetRecord(slot);
    TEMPO_ASSIGN_OR_RETURN(TupleView view,
                           TupleView::Make(layout, rec.data(), rec.size()));
    views->push_back(view);
  }
  return Status::OK();
}

const char* RecordArena::Copy(std::string_view record) {
  TEMPO_DCHECK(record.size() <= kPageSize);
  if (blocks_.empty() || used_ + record.size() > BlockBytes(block_)) {
    if (!blocks_.empty()) {
      ++block_;
      used_ = 0;
    }
    if (block_ == blocks_.size()) {
      blocks_.push_back(
          std::make_unique_for_overwrite<char[]>(BlockBytes(block_)));
    }
  }
  char* dst = blocks_[block_].get() + used_;
  std::memcpy(dst, record.data(), record.size());
  used_ += record.size();
  return dst;
}

StatusOr<size_t> ColumnExtractor::AddPage(PagePin page) {
  const size_t before = views_.size();
  const Status made = AppendPageViews(schema_->layout(), *page, &views_);
  if (!made.ok()) {
    // Drop the partially extracted page so the extractor stays
    // consistent; no column was pushed for it yet.
    views_.resize(before);
    return made;
  }
  for (size_t row = before; row < views_.size(); ++row) {
    const TupleView& v = views_[row];
    const Interval iv = v.interval();
    cols_.key_hashes.push_back(v.HashAttrs(*key_attrs_));
    cols_.starts.push_back(iv.start());
    cols_.ends.push_back(iv.end());
    bytes_ += v.record().size() + kSlotOverhead;
  }
  pages_.push_back(std::move(page));
  return views_.size() - before;
}

void ColumnExtractor::Repack(const Interval& p) {
  spare_.Clear();
  size_t kept = 0;
  bytes_ = 0;
  for (size_t row = 0; row < num_rows(); ++row) {
    if (!OverlapsRow(row, p)) continue;
    const std::string_view rec = views_[row].record();
    views_[kept] =
        TupleView::Trusted(schema_->layout(), spare_.Copy(rec), rec.size());
    cols_.key_hashes[kept] = cols_.key_hashes[row];
    cols_.starts[kept] = cols_.starts[row];
    cols_.ends[kept] = cols_.ends[row];
    bytes_ += rec.size() + kSlotOverhead;
    ++kept;
  }
  views_.resize(kept);
  cols_.Resize(kept);
  std::swap(arena_, spare_);
  pages_.clear();
}

void ColumnExtractor::Clear() {
  pages_.clear();
  views_.clear();
  cols_.Resize(0);
  bytes_ = 0;
  arena_.Clear();
}

}  // namespace tempo
