#ifndef TEMPO_STORAGE_PAGE_H_
#define TEMPO_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string_view>

#include "common/assert.h"

namespace tempo {

/// Disk page size. 4 KiB reproduces the paper's configuration: a 32 MiB
/// relation of 262,144 128-byte tuples occupies 8,192 pages, matching the
/// sampling example in Section 4.2 (819 random reads ≈ one sequential scan
/// at a 10:1 cost ratio).
inline constexpr size_t kPageSize = 4096;

/// A slotted heap page: a fixed 4 KiB buffer holding variable-length
/// records.
///
/// Layout:
///   [0,2)  uint16 slot_count
///   [2,4)  uint16 free_end   -- records occupy [free_end, kPageSize)
///   [4,..) slot array: per record {uint16 offset, uint16 length}
///
/// Records are appended from the back; slots grow from the front. Pages are
/// value types — copying one is a memcpy. The simulated disk keeps each
/// stored page behind a PagePin, so readers that pin a page share its bytes
/// instead of copying them.
class Page {
 public:
  using SlotId = uint16_t;

  Page() { Reset(); }

  /// Clears the page to the empty state.
  void Reset() {
    std::memset(data_, 0, kPageSize);
    SetSlotCount(0);
    SetFreeEnd(static_cast<uint16_t>(kPageSize));
  }

  uint16_t num_records() const { return Load16(0); }

  /// Bytes of record payload that one more record could carry (its 4-byte
  /// slot is accounted separately).
  size_t FreeSpace() const {
    size_t gap = Gap();
    return gap >= kSlotSize ? gap - kSlotSize : 0;
  }

  /// True iff a record of `record_size` bytes plus its slot fits.
  bool Fits(size_t record_size) const {
    return record_size + kSlotSize <= Gap();
  }

  /// Appends a record; returns its slot id, or nullopt if it does not fit.
  /// Zero-length records are allowed.
  std::optional<SlotId> AddRecord(std::string_view record) {
    const SlotId slot = num_records();
    char* dst = ReserveRecord(record.size());
    if (dst == nullptr) return std::nullopt;
    if (!record.empty()) std::memcpy(dst, record.data(), record.size());
    return slot;
  }

  /// Appends a slot for a record of `size` bytes and returns the address
  /// of its bytes, which the caller writes before the page is read or
  /// stored; nullptr if the record does not fit.
  char* ReserveRecord(size_t size) {
    if (!Fits(size)) return nullptr;
    uint16_t count = num_records();
    uint16_t offset = static_cast<uint16_t>(FreeEnd() - size);
    size_t slot_pos = kHeaderSize + count * kSlotSize;
    Store16(slot_pos, offset);
    Store16(slot_pos + 2, static_cast<uint16_t>(size));
    SetFreeEnd(offset);
    SetSlotCount(static_cast<uint16_t>(count + 1));
    return data_ + offset;
  }

  /// Returns the record stored in `slot`. The view is valid until the page
  /// is modified or destroyed.
  std::string_view GetRecord(SlotId slot) const {
    TEMPO_DCHECK(slot < num_records());
    size_t slot_pos = kHeaderSize + slot * kSlotSize;
    uint16_t offset = Load16(slot_pos);
    uint16_t length = Load16(slot_pos + 2);
    return std::string_view(data_ + offset, length);
  }

  /// Raw page bytes (for the simulated disk).
  const char* data() const { return data_; }
  char* mutable_data() { return data_; }

 private:
  static constexpr size_t kHeaderSize = 4;
  static constexpr size_t kSlotSize = 4;

  size_t Gap() const {
    size_t slots_end = kHeaderSize + num_records() * kSlotSize;
    size_t free_end = FreeEnd();
    TEMPO_DCHECK(free_end >= slots_end);
    return free_end - slots_end;
  }

  uint16_t FreeEnd() const { return Load16(2); }
  void SetFreeEnd(uint16_t v) { Store16(2, v); }
  void SetSlotCount(uint16_t v) { Store16(0, v); }

  uint16_t Load16(size_t pos) const {
    uint16_t v;
    std::memcpy(&v, data_ + pos, 2);
    return v;
  }
  void Store16(size_t pos, uint16_t v) { std::memcpy(data_ + pos, &v, 2); }

  char data_[kPageSize];
};

/// A shared, read-only reference to a page as the disk stored it. A pin
/// keeps those bytes alive and unchanged for as long as it is held: the
/// disk never writes a page in place (see Disk::WritePage), so a later
/// write, truncate or delete only replaces or drops the disk's own
/// reference.
using PagePin = std::shared_ptr<const Page>;

/// Largest record AddRecord can ever accept on an empty page.
inline constexpr size_t kMaxRecordSize = kPageSize - 4 /*header*/ - 4 /*slot*/;

}  // namespace tempo

#endif  // TEMPO_STORAGE_PAGE_H_
