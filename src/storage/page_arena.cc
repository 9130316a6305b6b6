#include "storage/page_arena.h"

#include <utility>

namespace tempo {

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
