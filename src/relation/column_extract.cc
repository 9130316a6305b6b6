#include "relation/column_extract.h"

namespace tempo {

StatusOr<size_t> ColumnExtractor::AddPage(const Page& page) {
  pages_.push_back(page);
  const Page& pinned = pages_.back();
  const RecordLayout& layout = schema_->layout();
  const size_t before = views_.size();
  for (uint16_t slot = 0; slot < pinned.num_records(); ++slot) {
    std::string_view rec = pinned.GetRecord(slot);
    auto view = TupleView::Make(layout, rec.data(), rec.size());
    if (!view.ok()) {
      // Drop the partially extracted page so the extractor stays
      // consistent.
      views_.resize(before);
      cols_.Resize(before);
      pages_.pop_back();
      return view.status();
    }
    const Interval iv = view->interval();
    cols_.key_hashes.push_back(view->HashAttrs(*key_attrs_));
    cols_.starts.push_back(iv.start());
    cols_.ends.push_back(iv.end());
    cols_.rows.push_back(static_cast<uint32_t>(views_.size()));
    views_.push_back(*view);
  }
  return views_.size() - before;
}

}  // namespace tempo
