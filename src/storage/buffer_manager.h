#ifndef TEMPO_STORAGE_BUFFER_MANAGER_H_
#define TEMPO_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "storage/disk.h"

namespace tempo {

/// Hit/miss counters of a BufferManager, snapshotable and subtractable so
/// the tracing layer can attribute buffer traffic to a phase:
///   BufferCounters before = pool.counters();
///   ... run phase ...
///   BufferCounters phase = pool.counters() - before;
struct BufferCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;

  uint64_t total() const { return hits + misses; }

  BufferCounters operator-(const BufferCounters& other) const {
    return BufferCounters{hits - other.hits, misses - other.misses};
  }
  BufferCounters operator+(const BufferCounters& other) const {
    return BufferCounters{hits + other.hits, misses + other.misses};
  }
  bool operator==(const BufferCounters& other) const {
    return hits == other.hits && misses == other.misses;
  }
};

/// A classic pin/unpin buffer pool over a Disk with LRU replacement.
///
/// The paper's join algorithms manage their buffer budget explicitly (outer
/// partition area, inner page, tuple cache, result page — Figure 3), so the
/// join executors talk to the Disk directly and enforce their own page
/// budget. BufferManager serves the rest of the system: incremental view
/// maintenance and applications that want ordinary cached access.
///
/// Usage:
///   TEMPO_ASSIGN_OR_RETURN(Page* p, buf.Pin(file, 3));
///   ... read/modify *p ...
///   buf.Unpin(file, 3, /*dirty=*/true);
///
/// Pin/Unpin and the flush operations are internally synchronized, so the
/// pool may be shared across threads. The returned Page* stays valid while
/// pinned (frames own their pages by unique_ptr); coordinating concurrent
/// writers to the *same* pinned page remains the caller's responsibility.
class BufferManager {
 public:
  /// `capacity_frames` pages of buffer memory.
  BufferManager(Disk* disk, size_t capacity_frames);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  ~BufferManager();

  /// Pins the page, reading it from disk on a miss. Fails with
  /// ResourceExhausted if every frame is pinned.
  StatusOr<Page*> Pin(FileId file, uint32_t page_no);

  /// Releases one pin. `dirty` marks the frame for write-back on eviction
  /// or flush.
  Status Unpin(FileId file, uint32_t page_no, bool dirty);

  /// Appends a fresh empty page to `file` on disk and pins it.
  /// Returns the page and its number.
  StatusOr<std::pair<Page*, uint32_t>> NewPage(FileId file);

  /// Writes back all dirty frames (clean frames stay cached).
  Status FlushAll();

  /// Writes back and drops every frame of `file`. Required before deleting
  /// the file on disk.
  Status FlushAndEvictFile(FileId file);

  size_t capacity() const { return capacity_; }
  size_t num_cached() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.size();
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

  /// Consistent snapshot of both counters (one lock acquisition).
  BufferCounters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return BufferCounters{hits_, misses_};
  }

 private:
  struct Key {
    FileId file;
    uint32_t page_no;
    bool operator==(const Key& other) const {
      return file == other.file && page_no == other.page_no;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.file * 0x9e3779b97f4a7c15ull ^
                                   k.page_no);
    }
  };
  struct Frame {
    Key key;
    std::unique_ptr<Page> page;
    int pin_count = 0;
    bool dirty = false;
    // Position in lru_ when pin_count == 0.
    std::list<Key>::iterator lru_pos;
    bool in_lru = false;
  };

  /// Frees one frame slot if at capacity, evicting the LRU unpinned frame.
  /// Caller must hold mu_.
  Status EnsureCapacity();
  Status WriteBack(Frame& frame);

  Disk* disk_;
  size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Frame, KeyHash> table_;
  std::list<Key> lru_;  // front = most recent
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// RAII pin guard. Unpins on destruction; call MarkDirty() before release
/// if the page was modified.
class PinnedPage {
 public:
  PinnedPage(BufferManager* buf, FileId file, uint32_t page_no, Page* page)
      : buf_(buf), file_(file), page_no_(page_no), page_(page) {}
  ~PinnedPage() {
    if (buf_ != nullptr) {
      // Unpin cannot fail for a held pin.
      buf_->Unpin(file_, page_no_, dirty_).ok();
    }
  }
  PinnedPage(PinnedPage&& other) noexcept
      : buf_(other.buf_),
        file_(other.file_),
        page_no_(other.page_no_),
        page_(other.page_),
        dirty_(other.dirty_) {
    other.buf_ = nullptr;
  }
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;
  PinnedPage& operator=(PinnedPage&&) = delete;

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }
  Page& operator*() const { return *page_; }
  void MarkDirty() { dirty_ = true; }

 private:
  BufferManager* buf_;
  FileId file_;
  uint32_t page_no_;
  Page* page_;
  bool dirty_ = false;
};

}  // namespace tempo

#endif  // TEMPO_STORAGE_BUFFER_MANAGER_H_
