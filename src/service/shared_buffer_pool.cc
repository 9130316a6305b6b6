#include "service/shared_buffer_pool.h"

#include <algorithm>
#include <string>

#include "obs/telemetry.h"

namespace tempo {

Status AdmissionTicket::Wait() {
  std::unique_lock<std::mutex> lock(pool_->mu_);
  pool_->cv_.wait(lock, [this] { return state_ != State::kQueued; });
  if (state_ == State::kGranted) return Status::OK();
  return Status::Cancelled("admission ticket cancelled while queued");
}

void AdmissionTicket::Cancel() {
  std::lock_guard<std::mutex> lock(pool_->mu_);
  if (state_ != State::kQueued) return;
  pool_->Unqueue(this);
  state_ = State::kCancelled;
  // Removing a stuck front reservation can unblock everything behind it.
  pool_->GrantFromFront();
  pool_->cv_.notify_all();
}

void AdmissionTicket::Release() {
  std::lock_guard<std::mutex> lock(pool_->mu_);
  switch (state_) {
    case State::kGranted:
      pool_->available_ += pages_;
      state_ = State::kReleased;
      if (FlightRecorder* flight =
              pool_->flight_.load(std::memory_order_acquire)) {
        flight->Append(FlightEventKind::kAdmissionReleased, tag_, pages_);
      }
      pool_->GrantFromFront();
      pool_->cv_.notify_all();
      break;
    case State::kQueued:
      pool_->Unqueue(this);
      state_ = State::kCancelled;
      pool_->GrantFromFront();
      pool_->cv_.notify_all();
      break;
    case State::kCancelled:
    case State::kReleased:
      break;
  }
}

bool AdmissionTicket::granted() const {
  std::lock_guard<std::mutex> lock(pool_->mu_);
  return state_ == State::kGranted;
}

StatusOr<std::unique_ptr<AdmissionTicket>> SharedBufferPool::Request(
    uint32_t pages, uint64_t tag) {
  if (pages == 0) {
    return Status::InvalidArgument("a query must reserve at least one page");
  }
  if (pages > capacity_) {
    // Could never be admitted; queueing it would wedge the strict FIFO
    // behind an ungrantable reservation.
    return Status::ResourceExhausted(
        "query needs " + std::to_string(pages) + " buffer pages but the "
        "shared pool holds only " + std::to_string(capacity_));
  }
  std::unique_ptr<AdmissionTicket> ticket(
      new AdmissionTicket(this, pages, tag));
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(ticket.get());
  GrantFromFront();
  // Counted after granting: a request admitted at once never waited.
  queue_peak_ = std::max<uint64_t>(queue_peak_, queue_.size());
  if (ticket->state_ == AdmissionTicket::State::kGranted) cv_.notify_all();
  return ticket;
}

void SharedBufferPool::GrantFromFront() {
  // Strict FIFO: only ever grant the front. A front that does not fit
  // blocks everyone behind it — that is the fairness guarantee.
  FlightRecorder* flight = flight_.load(std::memory_order_acquire);
  while (!queue_.empty() && queue_.front()->pages_ <= available_) {
    AdmissionTicket* front = queue_.front();
    queue_.pop_front();
    available_ -= front->pages_;
    front->state_ = AdmissionTicket::State::kGranted;
    if (flight != nullptr) {
      flight->Append(FlightEventKind::kAdmissionGranted, front->tag_,
                     front->pages_);
    }
  }
}

void SharedBufferPool::Unqueue(AdmissionTicket* ticket) {
  auto it = std::find(queue_.begin(), queue_.end(), ticket);
  if (it != queue_.end()) queue_.erase(it);
}

size_t SharedBufferPool::QueuePosition(const AdmissionTicket* ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i] == ticket) return i + 1;
  }
  return 0;
}

}  // namespace tempo
