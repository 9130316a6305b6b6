#ifndef TEMPO_JOIN_APPEND_ONLY_TREE_H_
#define TEMPO_JOIN_APPEND_ONLY_TREE_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "storage/stored_relation.h"

namespace tempo {

/// A fixed number of pinned pages with least-recently-used replacement:
/// the indexed join keeps its index nodes and inner data pages in two of
/// these within its page budget. A hit shares the held pin and charges
/// nothing; a miss pins through the disk (one charged read) and, when
/// full, drops the least recently used pin.
class PagePinLru {
 public:
  PagePinLru(Disk* disk, size_t capacity);

  PagePinLru(const PagePinLru&) = delete;
  PagePinLru& operator=(const PagePinLru&) = delete;

  StatusOr<PagePin> Pin(FileId file, uint32_t page_no);

 private:
  using Key = std::pair<FileId, uint32_t>;

  Disk* disk_;
  size_t capacity_;
  std::list<std::pair<Key, PagePin>> lru_;  // front = most recently used
  std::map<Key, std::list<std::pair<Key, PagePin>>::iterator> where_;
};

/// The append-only tree of Gunadhi & Segev [SG89, GS91] — the auxiliary
/// access path the paper's related work uses and the paper's own
/// algorithm pointedly avoids ("our approach does not require sort
/// orderings or auxiliary access paths, each with additional update
/// costs").
///
/// It indexes a relation whose tuples are appended in non-decreasing
/// interval-start order: a B+-tree on Vs whose inserts always land in the
/// rightmost leaf, so appends never split interior structure except along
/// the right spine. Leaf entries map the first Vs of each data page to
/// its page number.
///
/// The tree's nodes live in their own paged file on the relation's disk,
/// so every build, probe and append charges real (classified) I/O; the
/// index-vs-partition ablation measures exactly these charges.
class AppendOnlyTree {
 public:
  /// Bulk-loads an index over `rel`, which must already be ordered by
  /// non-decreasing Vs (e.g. the output of ExternalSortByVs, or an
  /// append-only relation in arrival order). One sequential pass over the
  /// relation plus writing the node file.
  static StatusOr<std::unique_ptr<AppendOnlyTree>> Build(
      StoredRelation* rel, const std::string& name);

  /// Drops the node file, so a tree abandoned on an error path leaves no
  /// pages behind.
  ~AppendOnlyTree() { Drop().ok(); }

  AppendOnlyTree(const AppendOnlyTree&) = delete;
  AppendOnlyTree& operator=(const AppendOnlyTree&) = delete;

  /// Registers one appended data page (its first Vs must be >= every key
  /// already present — the append-only contract). Charges the rightmost-
  /// spine node writes.
  Status AppendPage(Chronon first_vs, uint32_t page_no);

  /// First data page that could contain a tuple with Vs >= `t` — i.e.
  /// the page before the first leaf key > t (earlier pages end below t).
  /// Also the natural lower bound for "pages with min Vs <= t" scans.
  /// Reads one node per level through `nodes`, so a cached node charges
  /// nothing.
  StatusOr<uint32_t> LowerBoundPage(Chronon t, PagePinLru* nodes) const;

  /// Last data page whose first Vs is <= `t` (pages after it start past
  /// t). Reads one node per level through `nodes`. FailedPrecondition on
  /// an empty index.
  StatusOr<uint32_t> UpperBoundPage(Chronon t, PagePinLru* nodes) const;

  uint32_t height() const { return height_; }
  uint32_t num_node_pages() const;
  uint32_t num_data_pages() const { return num_entries_; }
  /// Largest interval duration seen at build/append time; range probes
  /// over interval *overlap* widen their lower bound by this much.
  int64_t max_duration() const { return max_duration_; }
  void ObserveDuration(int64_t d) {
    if (d > max_duration_) max_duration_ = d;
  }

  /// Drops the node file (idempotent).
  Status Drop();

 private:
  AppendOnlyTree(Disk* disk, std::string name);

  struct NodeRef {
    uint32_t page_no;
  };

  /// Appends a (key, child) entry to the node at `level`, growing the
  /// right spine (and the root) as needed.
  Status Insert(uint32_t level, Chronon key, uint32_t child);

  Disk* disk_;
  std::string name_;
  FileId file_ = 0;
  uint32_t height_ = 0;        // levels; 0 = empty
  uint32_t num_entries_ = 0;   // leaf entries = data pages indexed
  int64_t max_duration_ = 1;
  // Rightmost node page per level (level 0 = leaves), plus the cached
  // in-memory copy of each rightmost node for cheap appends.
  std::vector<uint32_t> right_spine_;
  std::vector<Page> right_page_;
  uint32_t root_page_ = 0;
};

}  // namespace tempo

#endif  // TEMPO_JOIN_APPEND_ONLY_TREE_H_
