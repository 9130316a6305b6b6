#include "storage/page_arena.h"

#include <utility>

namespace tempo {

StatusOr<size_t> PageTupleArena::AddPage(const Schema& schema, PagePin page) {
  const Page& pinned = *page;
  const RecordLayout& layout = schema.layout();
  const size_t before = views_.size();
  for (uint16_t slot = 0; slot < pinned.num_records(); ++slot) {
    std::string_view rec = pinned.GetRecord(slot);
    auto view = TupleView::Make(layout, rec.data(), rec.size());
    if (!view.ok()) {
      // Drop the partially decoded page so the arena stays consistent.
      views_.resize(before);
      return view.status();
    }
    views_.push_back(*view);
  }
  pages_.push_back(std::move(page));
  return views_.size() - before;
}

}  // namespace tempo
