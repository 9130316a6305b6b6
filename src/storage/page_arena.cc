#include "storage/page_arena.h"

namespace tempo {

StatusOr<size_t> PageTupleArena::AddPage(const Schema& schema,
                                         const Page& page) {
  pages_.push_back(page);
  const Page& pinned = pages_.back();
  const RecordLayout& layout = schema.layout();
  const size_t before = views_.size();
  for (uint16_t slot = 0; slot < pinned.num_records(); ++slot) {
    std::string_view rec = pinned.GetRecord(slot);
    auto view = TupleView::Make(layout, rec.data(), rec.size());
    if (!view.ok()) {
      // Drop the partially decoded page so the arena stays consistent.
      views_.resize(before);
      pages_.pop_back();
      return view.status();
    }
    views_.push_back(*view);
  }
  return views_.size() - before;
}

}  // namespace tempo
