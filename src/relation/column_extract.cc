#include "relation/column_extract.h"

#include <utility>

namespace tempo {

StatusOr<size_t> ColumnExtractor::AddPage(PagePin page) {
  const Page& pinned = *page;
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
      return view.status();
    }
    const Interval iv = view->interval();
    cols_.key_hashes.push_back(view->HashAttrs(*key_attrs_));
    cols_.starts.push_back(iv.start());
    cols_.ends.push_back(iv.end());
    views_.push_back(*view);
  }
  pages_.push_back(std::move(page));
  return views_.size() - before;
}

}  // namespace tempo
