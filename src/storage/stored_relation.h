#ifndef TEMPO_STORAGE_STORED_RELATION_H_
#define TEMPO_STORAGE_STORED_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "storage/page_arena.h"
#include "temporal/interval.h"

namespace tempo {

/// A valid-time relation instance stored as a heap file of slotted pages on
/// a simulated Disk.
///
/// Appends are buffered through a single in-memory page (flushed when full
/// or on Flush()); the paper's algorithms read the relation either
/// sequentially (Scanner) or page-at-a-time (ReadPage / ReadPageTuples).
/// Random tuple access for sampling goes through ReadTupleRandom, which
/// reads the containing page — one random I/O, the cost the paper assigns
/// to one sample.
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
  /// serialization is canonical (Deserialize rejects any non-round-trip
  /// encoding), routing record bytes straight from an input page — e.g.
  /// through a TupleView — produces the same stored bytes as decoding and
  /// re-appending the Tuple, without the decode/encode round trip.
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

  /// Reads a page and decodes all its tuples (charged I/O).
  StatusOr<std::vector<Tuple>> ReadPageTuples(uint32_t page_no);

  /// Decodes every record in `page` under `schema`. No I/O.
  static Status DecodePage(const Schema& schema, const Page& page,
                           std::vector<Tuple>* out);

  /// Batch-decode variant for tight loops: appends every record in `page`
  /// to `*arena` (not cleared), reserving capacity up front so a reused
  /// arena stops reallocating after the first pages. Returns the number of
  /// tuples appended. Serial and parallel probe/partition paths reuse one
  /// arena per worker across pages to avoid per-page vector churn.
  static StatusOr<size_t> DecodePageAppend(const Schema& schema,
                                           const Page& page,
                                           std::vector<Tuple>* arena);

  /// View variant: copies `page` into `*arena` (see PageTupleArena) and
  /// appends one validated TupleView per record instead of materializing
  /// owning Tuples. Returns the number of views appended. The views stay
  /// valid until the arena is cleared. A pinned page goes to
  /// PageTupleArena::AddPage directly, without the copy.
  static StatusOr<size_t> DecodePageViews(const Schema& schema,
                                          const Page& page,
                                          PageTupleArena* arena);

  /// Number of tuples stored on `page_no` (directory lookup; no I/O).
  uint32_t TuplesOnPage(uint32_t page_no) const;

  /// Page containing the tuple with ordinal `tuple_index` (directory
  /// lookup; no I/O).
  uint32_t PageOfTuple(uint64_t tuple_index) const;

  /// Reads the tuple with ordinal `tuple_index` by fetching its page —
  /// one random page read. OutOfRange if the tuple is not flushed.
  StatusOr<Tuple> ReadTupleRandom(uint64_t tuple_index);

  /// The valid-time interval of tuple `tuple_index`: the same page read
  /// and record checks as ReadTupleRandom, read off the pinned record
  /// without decoding an owning Tuple — the random-access path sampling
  /// uses.
  StatusOr<Interval> ReadIntervalRandom(uint64_t tuple_index);

  /// Sequential full-scan cursor. Reads pages in order (1 random +
  /// (n-1) sequential I/Os if uninterrupted).
  class Scanner {
   public:
    explicit Scanner(StoredRelation* rel) : rel_(rel) {}

    /// Fetches the next tuple into `*out`; returns false at end of
    /// relation.
    StatusOr<bool> Next(Tuple* out);

   private:
    StoredRelation* rel_;
    uint32_t page_no_ = 0;
    size_t slot_ = 0;
    std::vector<Tuple> current_;
    bool page_loaded_ = false;
  };

  Scanner Scan() { return Scanner(this); }

  /// Reads the entire relation into memory (charged as one sequential
  /// scan). Convenience for tests and small inputs.
  StatusOr<std::vector<Tuple>> ReadAll();

 private:
  /// Pins the page holding flushed tuple `tuple_index` and returns the
  /// tuple's record bytes in `*record` (valid while the pin is held).
  StatusOr<PagePin> PinTupleRecord(uint64_t tuple_index,
                                   std::string_view* record);

  Disk* disk_;
  Schema schema_;
  std::string name_;
  FileId file_;

  // The page being filled, never shared; Flush hands it to the disk and
  // starts a new one.
  std::shared_ptr<Page> append_buffer_ = std::make_shared<Page>();
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
