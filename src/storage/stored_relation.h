#ifndef TEMPO_STORAGE_STORED_RELATION_H_
#define TEMPO_STORAGE_STORED_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "relation/column_extract.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "relation/tuple_view.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "storage/page_arena.h"
#include "temporal/interval.h"

namespace tempo {

/// A valid-time relation instance stored as a heap file of slotted pages on
/// a simulated Disk.
///
/// Appends are buffered through a single in-memory page (flushed when full
/// or on Flush()). Every read pins a page (PinPage) and reads its records
/// in place as TupleViews: page at a time, or sequentially with
/// ForEachView. Random access for sampling goes through
/// ReadIntervalRandom, which pins the containing page — one random I/O,
/// the cost the paper assigns to one sample.
///
/// The tuple directory (tuples-per-page) is in-memory catalog metadata and
/// is not charged as I/O, mirroring the paper's assumption that |r| and
/// page counts are known to the optimizer.
class StoredRelation {
 public:
  /// Creates an empty relation backed by a fresh file on `disk`.
  StoredRelation(Disk* disk, Schema schema, std::string name);

  StoredRelation(const StoredRelation&) = delete;
  StoredRelation& operator=(const StoredRelation&) = delete;
  StoredRelation(StoredRelation&&) = default;

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }
  FileId file_id() const { return file_; }
  Disk* disk() const { return disk_; }

  uint64_t num_tuples() const { return num_tuples_; }
  /// Pages on disk; excludes the unflushed append buffer.
  uint32_t num_pages() const { return disk_->FileSizePages(file_); }
  /// True if Append() has buffered tuples not yet on disk.
  bool HasUnflushedAppends() const { return append_buffer_count_ > 0; }

  /// Whether accesses to this relation's file are charged to the
  /// accountant (see Disk::SetCharged).
  Status SetCharged(bool charged) { return disk_->SetCharged(file_, charged); }

  /// Appends a tuple (buffered). Fails if the record exceeds a page.
  Status Append(const Tuple& tuple);

  /// Appends an already-serialized record verbatim (buffered). Because
  /// serialization is canonical (TupleView::Make rejects any
  /// non-round-trip encoding), routing record bytes straight from an input
  /// page through a TupleView produces the same stored bytes as
  /// materializing and re-appending the Tuple, without the round trip.
  Status AppendRecord(std::string_view record);

  /// Appends a record of `size` bytes (buffered) and returns the address
  /// of its bytes in the append buffer, for the caller to write in full
  /// before the next call on this relation. Flushes first when the buffer
  /// cannot take it. Fails with InvalidArgument, appending nothing, if the
  /// record exceeds a page.
  StatusOr<char*> ReserveRecord(size_t size);

  /// Appends every tuple, then flushes.
  Status AppendAll(const std::vector<Tuple>& tuples);

  /// Writes out the partial append buffer, if any.
  Status Flush();

  /// Removes all tuples (disk file truncated, directory cleared).
  Status Clear();

  /// Pins a page (charged I/O; see Disk::PinPage): the page's stored
  /// bytes, shared rather than copied.
  StatusOr<PagePin> PinPage(uint32_t page_no) {
    return disk_->PinPage(file_, page_no);
  }

  /// Reads a copy of a page (charged I/O, exactly as PinPage).
  Status ReadPage(uint32_t page_no, Page* out);

  /// Copies `page` into `*arena` (see PageTupleArena) and appends one
  /// validated TupleView per record. Returns the number of views appended.
  /// The views stay valid until the arena is cleared. A pinned page goes
  /// to PageTupleArena::AddPage directly, without the copy.
  static StatusOr<size_t> DecodePageViews(const Schema& schema,
                                          const Page& page,
                                          PageTupleArena* arena);

  /// Number of tuples stored on `page_no` (directory lookup; no I/O).
  uint32_t TuplesOnPage(uint32_t page_no) const;

  /// Page containing the tuple with ordinal `tuple_index` (directory
  /// lookup; no I/O).
  uint32_t PageOfTuple(uint64_t tuple_index) const;

  /// The valid-time interval of tuple `tuple_index`, read off its record
  /// in the pinned page — one random page read, the random-access path
  /// sampling uses. OutOfRange if the tuple is not flushed; Corruption if
  /// its record does not parse.
  StatusOr<Interval> ReadIntervalRandom(uint64_t tuple_index);

  /// Calls `fn(const TupleView&)`, which returns a Status, on every record
  /// in page then slot order, pinning one page at a time (1 random +
  /// (n-1) sequential reads if uninterrupted). A view is valid only during
  /// its call. Stops at the first corrupt record or failed call.
  template <typename Fn>
  Status ForEachView(Fn&& fn) {
    const uint32_t pages = num_pages();
    std::vector<TupleView> views;
    for (uint32_t p = 0; p < pages; ++p) {
      TEMPO_ASSIGN_OR_RETURN(PagePin page, PinPage(p));
      views.clear();
      const Status made = AppendPageViews(schema_.layout(), *page, &views);
      for (const TupleView& v : views) TEMPO_RETURN_IF_ERROR(fn(v));
      TEMPO_RETURN_IF_ERROR(made);
    }
    return Status::OK();
  }

  /// Reads the entire relation into memory (charged as one sequential
  /// scan). For oracles, tests and small inputs: no executor calls it.
  StatusOr<std::vector<Tuple>> ReadAll();

 private:
  Disk* disk_;
  Schema schema_;
  std::string name_;
  FileId file_;

  // The page being filled, never shared: null until a record arrives,
  // and handed to the disk by Flush.
  std::shared_ptr<Page> append_buffer_;
  uint32_t append_buffer_count_ = 0;

  uint64_t num_tuples_ = 0;
  // cum_tuples_[p] = number of tuples on pages [0, p); one extra trailing
  // entry equals the flushed-tuple total.
  std::vector<uint64_t> cum_tuples_;
};

/// Deletes a relation's file together with the relation object. A file
/// that is already gone is not an error.
struct DropRelationFile {
  void operator()(StoredRelation* rel) const;
};

/// A relation the library creates: its file is deleted when its owner
/// dies, on error paths too, so no early return can leave its pages on the
/// disk. Inputs and catalog relations belong to the caller and are held
/// as plain unique_ptr<StoredRelation>.
using TempRelation = std::unique_ptr<StoredRelation, DropRelationFile>;

}  // namespace tempo

#endif  // TEMPO_STORAGE_STORED_RELATION_H_
