#include "join/append_only_tree.h"

#include <cstring>

namespace tempo {

namespace {

// Node entry wire format: key (8 bytes) + child page number (4 bytes).
constexpr size_t kEntrySize = 12;

std::string EncodeEntry(Chronon key, uint32_t child) {
  std::string out(kEntrySize, '\0');
  std::memcpy(out.data(), &key, 8);
  std::memcpy(out.data() + 8, &child, 4);
  return out;
}

void DecodeEntry(std::string_view rec, Chronon* key, uint32_t* child) {
  TEMPO_DCHECK(rec.size() == kEntrySize);
  std::memcpy(key, rec.data(), 8);
  std::memcpy(child, rec.data() + 8, 4);
}

}  // namespace

PagePinLru::PagePinLru(Disk* disk, size_t capacity)
    : disk_(disk), capacity_(capacity) {
  TEMPO_CHECK(disk != nullptr);
  TEMPO_CHECK(capacity > 0);
}

StatusOr<PagePin> PagePinLru::Pin(FileId file, uint32_t page_no) {
  const Key key{file, page_no};
  auto it = where_.find(key);
  if (it != where_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  TEMPO_ASSIGN_OR_RETURN(PagePin page, disk_->PinPage(file, page_no));
  if (lru_.size() == capacity_) {
    where_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(key, page);
  where_.emplace(key, lru_.begin());
  return page;
}

AppendOnlyTree::AppendOnlyTree(Disk* disk, std::string name)
    : disk_(disk), name_(std::move(name)) {
  file_ = disk_->CreateFile(name_ + ".aptree");
}

StatusOr<std::unique_ptr<AppendOnlyTree>> AppendOnlyTree::Build(
    StoredRelation* rel, const std::string& name) {
  std::unique_ptr<AppendOnlyTree> tree(
      new AppendOnlyTree(rel->disk(), name));
  Chronon prev_first = kChrononMin;
  PageTupleArena arena;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    TEMPO_ASSIGN_OR_RETURN(PagePin page, rel->PinPage(p));
    arena.Clear();
    TEMPO_RETURN_IF_ERROR(
        arena.AddPage(rel->schema(), std::move(page)).status());
    if (arena.views().empty()) continue;
    for (const TupleView& v : arena.views()) {
      const Interval iv = v.interval();
      if (iv.start() < prev_first) {
        return Status::FailedPrecondition(
            "relation is not ordered by interval start");
      }
      prev_first = iv.start();
      tree->ObserveDuration(iv.duration());
    }
    TEMPO_RETURN_IF_ERROR(
        tree->AppendPage(arena.views().front().interval().start(), p));
  }
  return tree;
}

Status AppendOnlyTree::AppendPage(Chronon first_vs, uint32_t page_no) {
  TEMPO_RETURN_IF_ERROR(Insert(0, first_vs, page_no));
  ++num_entries_;
  return Status::OK();
}

Status AppendOnlyTree::Insert(uint32_t level, Chronon key, uint32_t child) {
  if (level >= right_spine_.size()) {
    // New level (the tree grows at the top). Its single page becomes the
    // root; the caller is responsible for seeding it with the previous
    // top page's entry before/after this insert (see the split path).
    Page fresh;
    TEMPO_ASSIGN_OR_RETURN(uint32_t page_no,
                           disk_->AppendPage(file_, fresh));
    right_spine_.push_back(page_no);
    right_page_.push_back(fresh);
    height_ = static_cast<uint32_t>(right_spine_.size());
    root_page_ = page_no;
  }
  Page& cur = right_page_[level];
  std::string entry = EncodeEntry(key, child);
  if (!cur.Fits(entry.size())) {
    // Split: the rightmost page at this level is full. Its on-disk copy
    // is already current; start a fresh right page and tell the parent.
    const uint32_t old_page = right_spine_[level];
    const bool had_parent = level + 1 < right_spine_.size();
    Page fresh;
    TEMPO_ASSIGN_OR_RETURN(uint32_t new_page,
                           disk_->AppendPage(file_, fresh));
    right_spine_[level] = new_page;
    right_page_[level].Reset();
    if (!had_parent) {
      // A parent is being created: seed it with the old page first. Its
      // first key is unimportant for the descend (it is the leftmost
      // child); use kChrononMin.
      TEMPO_RETURN_IF_ERROR(Insert(level + 1, kChrononMin, old_page));
    }
    TEMPO_RETURN_IF_ERROR(Insert(level + 1, key, new_page));
  }
  Page& target = right_page_[level];
  auto slot = target.AddRecord(entry);
  TEMPO_CHECK(slot.has_value());
  // Keep the on-disk node current (this is the index's update cost).
  return disk_->WritePage(file_, right_spine_[level], target);
}

uint32_t AppendOnlyTree::num_node_pages() const {
  return disk_->FileSizePages(file_);
}

namespace {

/// Index of the last entry on `node` with key <= t; -1 if none.
int LastEntryAtMost(const Page& node, Chronon t) {
  int found = -1;
  for (uint16_t i = 0; i < node.num_records(); ++i) {
    Chronon key;
    uint32_t child;
    DecodeEntry(node.GetRecord(i), &key, &child);
    if (key <= t) {
      found = i;
    } else {
      break;  // entries are appended in key order
    }
  }
  return found;
}

}  // namespace

StatusOr<uint32_t> AppendOnlyTree::UpperBoundPage(Chronon t,
                                                  PagePinLru* nodes) const {
  if (height_ == 0) {
    return Status::FailedPrecondition("empty index");
  }
  uint32_t page_no = root_page_;
  for (uint32_t level = height_; level-- > 0;) {
    TEMPO_ASSIGN_OR_RETURN(PagePin node, nodes->Pin(file_, page_no));
    int idx = LastEntryAtMost(*node, t);
    if (idx < 0) idx = 0;  // descend leftmost
    Chronon key;
    uint32_t child;
    DecodeEntry(node->GetRecord(static_cast<uint16_t>(idx)), &key, &child);
    page_no = child;
    if (level == 0) return child;  // leaf entry = data page
  }
  return page_no;
}

StatusOr<uint32_t> AppendOnlyTree::LowerBoundPage(Chronon t,
                                                  PagePinLru* nodes) const {
  TEMPO_ASSIGN_OR_RETURN(uint32_t page, UpperBoundPage(t, nodes));
  // Step back one data page: the preceding page may contain tuples with
  // Vs == t at its tail.
  return page > 0 ? page - 1 : 0;
}

Status AppendOnlyTree::Drop() {
  if (file_ != 0 && disk_->Exists(file_)) {
    TEMPO_RETURN_IF_ERROR(disk_->DeleteFile(file_));
  }
  right_spine_.clear();
  right_page_.clear();
  height_ = 0;
  num_entries_ = 0;
  return Status::OK();
}

}  // namespace tempo
