#ifndef TEMPO_STORAGE_DISK_H_
#define TEMPO_STORAGE_DISK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "storage/io_accountant.h"
#include "storage/page.h"

namespace tempo {

/// Identifies a file on a Disk.
using FileId = uint64_t;

/// A simulated disk volume: named paged files held in memory, with every
/// page access routed through an IoAccountant.
///
/// The paper ran "main-memory simulations ... We measured cost as the number
/// of I/O operations" (Section 4.1). Disk is that simulator: algorithms
/// execute their real page-level logic against it, and the accountant
/// classifies and counts the traffic. A single head position is tracked per
/// Disk (one spindle), so interleaved access to different files is random,
/// and consecutive pages of one file are sequential — the model Appendix A.1
/// reasons with.
///
/// Files may be marked *uncharged* (SetCharged(false)): their accesses are
/// neither counted nor move the head. Benchmarks mark the shared result
/// file uncharged for all algorithms, following the paper's "the cost of
/// writing the result relation is omitted since this cost is incurred by
/// all evaluation algorithms" (Appendix A.2).
///
/// All operations are internally synchronized, so concurrent queries may
/// share one Disk. A stored page is immutable once on the disk: readers pin
/// it (PinPage) and share its bytes without copying them, and writes are
/// copy-on-write — WritePage installs a fresh page and Truncate/DeleteFile
/// drop the disk's reference — so a held pin never sees a torn or changed
/// page, and its bytes live until the last pin is released.
///
/// Page frames come from one process-wide pool (NewPage). DeleteFile,
/// Truncate and ~Disk give back each frame no reader pins, so each
/// query's temporary files reuse frames instead of faulting in fresh
/// memory. A spare frame is poisoned for AddressSanitizer until reused.
class Disk {
 public:
  Disk() = default;
  ~Disk();

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Creates an empty file. Names are for debugging; duplicates allowed.
  FileId CreateFile(std::string name);

  /// Deletes a file and drops its pages. Ids are never reused.
  Status DeleteFile(FileId id);

  /// Drops all pages of the file but keeps the id valid.
  Status Truncate(FileId id);

  /// An empty page frame for a writer to fill and hand to AppendPage: a
  /// spare frame from the pool when there is one, else a new allocation.
  static std::shared_ptr<Page> NewPage();

  /// Marks whether accesses to this file are charged to the accountant.
  Status SetCharged(FileId id, bool charged);

  bool Exists(FileId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(id) != 0;
  }

  /// Number of pages in the file; 0 for unknown ids.
  uint32_t FileSizePages(FileId id) const;

  const std::string& FileName(FileId id) const;

  /// Pins page `page_no`: the one accounted read path. Charges one read
  /// exactly as ReadPage does and shares the stored bytes instead of
  /// copying them. OutOfRange if past EOF.
  StatusOr<PagePin> PinPage(FileId id, uint32_t page_no);

  /// Reads page `page_no` into `*out`: PinPage plus one copy. OutOfRange
  /// if past EOF.
  Status ReadPage(FileId id, uint32_t page_no, Page* out);

  /// Overwrites an existing page. Copy-on-write: the file gets a fresh
  /// copy of `page`, and pins of the old page keep reading the old bytes.
  Status WritePage(FileId id, uint32_t page_no, const Page& page);

  /// Appends a copy of `page`; returns its page number.
  StatusOr<uint32_t> AppendPage(FileId id, const Page& page);

  /// Appends `*page` without copying it. The caller must hold the only
  /// reference: on success the disk takes it and `*page` is left null, so
  /// nothing can write the stored page; on failure `*page` is untouched,
  /// so the caller still holds its contents. (A shared_ptr rather than a
  /// unique_ptr so the page and its reference count share one
  /// allocation.)
  StatusOr<uint32_t> AppendPage(FileId id, std::shared_ptr<Page>* page);

  /// The accountant charged by page traffic *from the calling thread*: the
  /// innermost ScopedAccountantBinding installed on this thread for this
  /// disk, or the disk's own base accountant when none is bound. Single-
  /// query code never notices the indirection; the concurrent query
  /// service binds a fresh per-query accountant around each query so that
  /// per-query head positions — and therefore charged IoStats — are
  /// byte-identical to a serial run of the same query.
  IoAccountant& accountant();
  const IoAccountant& accountant() const;

  /// The disk's own accountant, ignoring any thread binding. The query
  /// service reads its head model to configure each per-query accountant.
  IoAccountant& base_accountant() { return accountant_; }
  const IoAccountant& base_accountant() const { return accountant_; }

  /// Total pages across all files (simulated secondary-storage footprint;
  /// used by the replication-vs-migration ablation).
  uint64_t TotalPages() const;

  /// Fault injection: after `ops` further successful page accesses, every
  /// subsequent access fails with an Internal error until cleared. Used
  /// by the robustness tests to verify that every executor propagates
  /// storage failures as Status instead of crashing or corrupting state.
  void InjectFaultAfter(uint64_t ops) {
    std::lock_guard<std::mutex> lock(mu_);
    fault_armed_ = true;
    fault_countdown_ = ops;
  }
  void ClearFault() {
    std::lock_guard<std::mutex> lock(mu_);
    fault_armed_ = false;
  }

 private:
  struct File {
    std::string name;
    bool charged = true;
    std::vector<PagePin> pages;
  };

  StatusOr<File*> Find(FileId id);

  /// Consumes one fault-injection tick; error when the fault has fired.
  Status CheckFault();

  mutable std::mutex mu_;
  std::unordered_map<FileId, File> files_;
  FileId next_id_ = 1;
  IoAccountant accountant_;
  bool fault_armed_ = false;
  uint64_t fault_countdown_ = 0;
};

/// Binds `accountant` as the calling thread's ledger for all page traffic
/// on `disk` for the lifetime of this object (a null accountant is a
/// no-op, which lets callers forward a possibly-absent binding verbatim).
/// Bindings are per-thread and nest innermost-wins; they are how multiple
/// concurrent queries share one Disk while each keeps the private head
/// model that makes its charged IoStats equal to a serial run.
class ScopedAccountantBinding {
 public:
  ScopedAccountantBinding(const Disk* disk, IoAccountant* accountant);

  ScopedAccountantBinding(const ScopedAccountantBinding&) = delete;
  ScopedAccountantBinding& operator=(const ScopedAccountantBinding&) = delete;

  ~ScopedAccountantBinding();

 private:
  bool pushed_ = false;
};

}  // namespace tempo

#endif  // TEMPO_STORAGE_DISK_H_
