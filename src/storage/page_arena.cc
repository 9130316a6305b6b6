#include "storage/page_arena.h"

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

StatusOr<size_t> PageTupleArena::AddPage(const Schema& schema, PagePin page) {
  const size_t before = views_.size();
  const Status made = AppendPageViews(schema.layout(), *page, &views_);
  if (!made.ok()) {
    // Drop the partially decoded page so the arena stays consistent.
    views_.resize(before);
    return made;
  }
  pages_.push_back(std::move(page));
  return views_.size() - before;
}

}  // namespace tempo
