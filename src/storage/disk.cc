#include "storage/disk.h"

#include <sanitizer/asan_interface.h>

#include <atomic>
#include <chrono>
#include <utility>
#include <vector>

namespace tempo {

namespace {

/// Per-thread stack of {disk, accountant} bindings (innermost last). A
/// stack rather than a single slot so a query that nests scopes — or a
/// test that runs a query inside another binding — restores the outer
/// ledger on exit. Scanned from the back on each access; depth is 0 or 1
/// in practice, so the scan is effectively a pointer compare.
thread_local std::vector<std::pair<const Disk*, IoAccountant*>> t_bindings;

IoAccountant* FindBinding(const Disk* disk) {
  for (auto it = t_bindings.rbegin(); it != t_bindings.rend(); ++it) {
    if (it->first == disk) return it->second;
  }
  return nullptr;
}

/// The spare page frames every Disk shares (see Disk's class comment).
struct FramePool {
  std::mutex mu;
  std::vector<std::shared_ptr<Page>> frames;
};

FramePool& Frames() {
  // Never destroyed, so a Disk that outlives main() can still give back.
  static FramePool* const pool = new FramePool;
  return *pool;
}

/// Clears `pages`, a file's pages, keeping as spares the frames no reader
/// pins. The caller holds the disk's lock (or is destroying the disk),
/// and pins are copied only under it, so an unheld frame stays unheld.
void GiveFrames(std::vector<PagePin>* pages) {
  FramePool& pool = Frames();
  std::lock_guard<std::mutex> lock(pool.mu);
  for (PagePin& page : *pages) {
    if (page.use_count() != 1) continue;
    // Orders the last reader's use of the bytes, released with its pin,
    // before the frame is written again.
    std::atomic_thread_fence(std::memory_order_acquire);
    // Every stored page was allocated non-const (NewPage), so writing it
    // again is well defined.
    pool.frames.push_back(std::const_pointer_cast<Page>(std::move(page)));
    ASAN_POISON_MEMORY_REGION(pool.frames.back().get(), sizeof(Page));
  }
  pages->clear();
}

}  // namespace

ScopedAccountantBinding::ScopedAccountantBinding(const Disk* disk,
                                                 IoAccountant* accountant) {
  if (disk == nullptr || accountant == nullptr) return;
  t_bindings.emplace_back(disk, accountant);
  pushed_ = true;
}

ScopedAccountantBinding::~ScopedAccountantBinding() {
  if (pushed_) t_bindings.pop_back();
}

IoAccountant& Disk::accountant() {
  IoAccountant* bound = FindBinding(this);
  return bound != nullptr ? *bound : accountant_;
}

const IoAccountant& Disk::accountant() const {
  const IoAccountant* bound = FindBinding(this);
  return bound != nullptr ? *bound : accountant_;
}

FileId Disk::CreateFile(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  FileId id = next_id_++;
  File f;
  f.name = std::move(name);
  files_.emplace(id, std::move(f));
  return id;
}

StatusOr<Disk::File*> Disk::Find(FileId id) {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + std::to_string(id));
  }
  return &it->second;
}

Disk::~Disk() {
  for (auto& [id, f] : files_) GiveFrames(&f.pages);
}

std::shared_ptr<Page> Disk::NewPage() {
  FramePool& pool = Frames();
  std::unique_lock<std::mutex> lock(pool.mu);
  if (pool.frames.empty()) return std::make_shared<Page>();
  std::shared_ptr<Page> frame = std::move(pool.frames.back());
  pool.frames.pop_back();
  lock.unlock();
  ASAN_UNPOISON_MEMORY_REGION(frame.get(), sizeof(Page));
  frame->Reset();
  return frame;
}

Status Disk::DeleteFile(FileId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + std::to_string(id));
  }
  GiveFrames(&it->second.pages);
  files_.erase(it);
  return Status::OK();
}

Status Disk::Truncate(FileId id) {
  std::lock_guard<std::mutex> lock(mu_);
  TEMPO_ASSIGN_OR_RETURN(File * f, Find(id));
  GiveFrames(&f->pages);
  return Status::OK();
}

Status Disk::SetCharged(FileId id, bool charged) {
  std::lock_guard<std::mutex> lock(mu_);
  TEMPO_ASSIGN_OR_RETURN(File * f, Find(id));
  f->charged = charged;
  return Status::OK();
}

uint32_t Disk::FileSizePages(FileId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(id);
  if (it == files_.end()) return 0;
  return static_cast<uint32_t>(it->second.pages.size());
}

const std::string& Disk::FileName(FileId id) const {
  static const std::string kUnknown = "<unknown>";
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(id);
  return it == files_.end() ? kUnknown : it->second.name;
}

Status Disk::CheckFault() {
  if (!fault_armed_) return Status::OK();
  if (fault_countdown_ == 0) {
    return Status::Internal("injected storage fault");
  }
  --fault_countdown_;
  return Status::OK();
}

StatusOr<PagePin> Disk::PinPage(FileId id, uint32_t page_no) {
  // Latency capture at the Disk/IoAccountant boundary: only when an
  // ExecContext installed a sink. The timed window includes lock wait, so
  // contention between concurrent queries shows up in the tail.
  IoAccountant& acct = accountant();
  LogHistogram* latency = acct.latency_sink();
  std::chrono::steady_clock::time_point t0;
  if (latency != nullptr) t0 = std::chrono::steady_clock::now();
  PagePin pin;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TEMPO_ASSIGN_OR_RETURN(File * f, Find(id));
    if (page_no >= f->pages.size()) {
      return Status::OutOfRange("read past EOF: page " +
                                std::to_string(page_no) + " of " + f->name);
    }
    TEMPO_RETURN_IF_ERROR(CheckFault());
    acct.RecordRead(id, page_no, f->charged);
    pin = f->pages[page_no];
  }
  if (latency != nullptr) {
    latency->Record(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  return pin;
}

Status Disk::ReadPage(FileId id, uint32_t page_no, Page* out) {
  TEMPO_ASSIGN_OR_RETURN(PagePin pin, PinPage(id, page_no));
  *out = *pin;
  return Status::OK();
}

Status Disk::WritePage(FileId id, uint32_t page_no, const Page& page) {
  std::shared_ptr<Page> copy = NewPage();
  *copy = page;
  std::lock_guard<std::mutex> lock(mu_);
  TEMPO_ASSIGN_OR_RETURN(File * f, Find(id));
  if (page_no >= f->pages.size()) {
    return Status::OutOfRange("write past EOF: page " +
                              std::to_string(page_no) + " of " + f->name);
  }
  TEMPO_RETURN_IF_ERROR(CheckFault());
  accountant().RecordWrite(id, page_no, f->charged);
  f->pages[page_no] = std::move(copy);
  return Status::OK();
}

StatusOr<uint32_t> Disk::AppendPage(FileId id, const Page& page) {
  std::shared_ptr<Page> copy = NewPage();
  *copy = page;
  return AppendPage(id, &copy);
}

StatusOr<uint32_t> Disk::AppendPage(FileId id, std::shared_ptr<Page>* page) {
  TEMPO_DCHECK(page != nullptr && page->use_count() == 1);
  std::lock_guard<std::mutex> lock(mu_);
  TEMPO_ASSIGN_OR_RETURN(File * f, Find(id));
  TEMPO_RETURN_IF_ERROR(CheckFault());
  uint32_t page_no = static_cast<uint32_t>(f->pages.size());
  accountant().RecordWrite(id, page_no, f->charged);
  f->pages.push_back(std::move(*page));
  return page_no;
}

uint64_t Disk::TotalPages() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [id, f] : files_) total += f.pages.size();
  return total;
}

}  // namespace tempo
