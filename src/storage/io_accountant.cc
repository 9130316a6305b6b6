#include "storage/io_accountant.h"

namespace tempo {

std::string IoStats::ToString() const {
  return "reads{ran=" + std::to_string(random_reads) +
         ", seq=" + std::to_string(sequential_reads) + "} writes{ran=" +
         std::to_string(random_writes) + ", seq=" +
         std::to_string(sequential_writes) + "}";
}

bool IoAccountant::IsSequential(uint64_t file_id, uint64_t page_no) const {
  if (head_model_ == HeadModel::kSingleHead) {
    return has_position_ && file_id == last_file_ &&
           (page_no == last_page_ + 1 || page_no == last_page_);
  }
  auto it = file_positions_.find(file_id);
  if (it == file_positions_.end()) return false;
  return page_no == it->second + 1 || page_no == it->second;
}

void IoAccountant::Advance(uint64_t file_id, uint64_t page_no) {
  has_position_ = true;
  last_file_ = file_id;
  last_page_ = page_no;
  file_positions_[file_id] = page_no;
}

void IoAccountant::RecordRead(uint64_t file_id, uint64_t page_no,
                              bool charged) {
  if (!charged) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (IsSequential(file_id, page_no)) {
    ++stats_.sequential_reads;
  } else {
    ++stats_.random_reads;
  }
  Advance(file_id, page_no);
}

void IoAccountant::RecordWrite(uint64_t file_id, uint64_t page_no,
                               bool charged) {
  if (!charged) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (IsSequential(file_id, page_no)) {
    ++stats_.sequential_writes;
  } else {
    ++stats_.random_writes;
  }
  Advance(file_id, page_no);
}

}  // namespace tempo
