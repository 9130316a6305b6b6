#ifndef TEMPO_STORAGE_PAGE_ARENA_H_
#define TEMPO_STORAGE_PAGE_ARENA_H_

#include <vector>

#include "common/statusor.h"
#include "relation/schema.h"
#include "relation/tuple_view.h"
#include "storage/page.h"

namespace tempo {

/// Holds pinned pages so TupleViews over them stay valid for the lifetime
/// of a processing phase (one partition pass, one probed page).
///
/// AddPage keeps a PagePin — the disk's own stored bytes, which no later
/// write changes (Disk::WritePage is copy-on-write) — and appends one
/// validated TupleView per record to views(). Nothing is copied; a page
/// held only as a Page is copied once into a new pin. Clear() drops
/// everything at a phase boundary; reusing one arena across pages
/// keeps the capacity of views() warm the same way the owning
/// DecodePageAppend arena does.
///
/// The arena borrows the RecordLayout cached on the Schema passed to
/// AddPage; that Schema (or a copy sharing its layout) must outlive the
/// arena's views.
class PageTupleArena {
 public:
  PageTupleArena() = default;
  PageTupleArena(const PageTupleArena&) = delete;
  PageTupleArena& operator=(const PageTupleArena&) = delete;

  /// Holds `page` and appends one view per record. Returns the number of
  /// views appended, or the first record-corruption error (the page is
  /// dropped again).
  StatusOr<size_t> AddPage(const Schema& schema, PagePin page);

  /// Same, for a page held by value: copies it into a new pin first.
  StatusOr<size_t> AddPage(const Schema& schema, const Page& page) {
    return AddPage(schema, std::make_shared<const Page>(page));
  }

  /// Views over every record added since the last Clear(), in page order
  /// then slot order.
  const std::vector<TupleView>& views() const { return views_; }

  size_t num_pages() const { return pages_.size(); }

  /// Invalidates all views handed out so far.
  void Clear() {
    pages_.clear();
    views_.clear();
  }

 private:
  std::vector<PagePin> pages_;
  std::vector<TupleView> views_;
};

}  // namespace tempo

#endif  // TEMPO_STORAGE_PAGE_ARENA_H_
