#ifndef TEMPO_SERVICE_SHARED_BUFFER_POOL_H_
#define TEMPO_SERVICE_SHARED_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "common/statusor.h"

namespace tempo {

class FlightRecorder;
class SharedBufferPool;

/// One query's buffer-page reservation, issued by
/// SharedBufferPool::Request. States move strictly forward:
///
///   queued --> granted --> released        (normal life cycle)
///   queued --> cancelled                   (Cancel before the grant)
///
/// Wait() blocks until the ticket leaves the queued state and returns OK
/// (granted) or Cancelled. Destroying the ticket releases whatever it
/// holds: a granted ticket returns its pages (waking the queue), a queued
/// one removes itself from the queue (equivalent to Cancel).
class AdmissionTicket {
 public:
  ~AdmissionTicket() { Release(); }

  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  /// Blocks until granted (OK) or cancelled (Cancelled status).
  Status Wait();

  /// Cancels the reservation if still queued; the slot is removed from
  /// the FIFO immediately, so queries behind it can be admitted. A
  /// granted or already-finished ticket is unaffected.
  void Cancel();

  /// Returns the reservation (idempotent). Granted pages go back to the
  /// pool; a still-queued ticket is cancelled.
  void Release();

  uint32_t pages() const { return pages_; }

  /// True once the ticket has been granted (and not yet released).
  bool granted() const;

  /// Opaque owner tag carried into the pool's flight-recorder events (the
  /// query service passes the query id to Request). 0 = untagged.
  uint64_t tag() const { return tag_; }

 private:
  friend class SharedBufferPool;
  enum class State { kQueued, kGranted, kCancelled, kReleased };

  AdmissionTicket(SharedBufferPool* pool, uint32_t pages, uint64_t tag)
      : pool_(pool), pages_(pages), tag_(tag) {}

  SharedBufferPool* pool_;
  const uint32_t pages_;
  const uint64_t tag_;
  State state_ = State::kQueued;  // guarded by pool_->mu_
};

/// The concurrent query service's shared buffer memory: a logical ledger
/// of `capacity_pages` pages with strict-FIFO admission control.
///
/// Each query reserves its whole buffer budget (the paper's buffSize) up
/// front: Request(pages) returns a ticket that is granted immediately
/// when the pages are free *and* no earlier query is still waiting —
/// admission is strictly first-come-first-served, so a small query cannot
/// overtake a large one and starve it. When the front reservation cannot
/// fit, every later query waits behind it. A request larger than the whole
/// pool fails immediately with ResourceExhausted (it could never be
/// granted; queueing it would deadlock the FIFO).
///
/// The ledger is intentionally decoupled from the executors' actual page
/// usage: the paper's algorithms manage their buffSize budget internally,
/// so admission control only needs to guarantee that the *sum of budgets*
/// of running queries never exceeds the pool — the same contract a real
/// buffer manager's reservation API would enforce.
class SharedBufferPool {
 public:
  explicit SharedBufferPool(uint32_t capacity_pages)
      : capacity_(capacity_pages), available_(capacity_pages) {}

  SharedBufferPool(const SharedBufferPool&) = delete;
  SharedBufferPool& operator=(const SharedBufferPool&) = delete;

  /// Reserves `pages` of the pool. ResourceExhausted when pages == 0 or
  /// pages > capacity. Otherwise returns a queued (or, when the pool is
  /// idle and the pages free, immediately granted) ticket; call Wait().
  /// `tag` travels into the flight-recorder grant/release events (the
  /// query service passes the query id).
  StatusOr<std::unique_ptr<AdmissionTicket>> Request(uint32_t pages,
                                                     uint64_t tag = 0);

  uint32_t capacity_pages() const { return capacity_; }
  uint32_t available_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return available_;
  }

  /// Queries currently waiting in the admission queue.
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// Peak queue depth over the pool's lifetime (the admission_queue_peak
  /// metric); a request granted on arrival does not count.
  uint64_t queue_peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_peak_;
  }

  /// 1-based FIFO position of a still-queued ticket (1 = next to be
  /// granted); 0 when the ticket is not queued (granted, cancelled,
  /// released, or foreign). The "queue position" of
  /// QueryHandle::Progress().
  size_t QueuePosition(const AdmissionTicket* ticket) const;

  /// Wires admission grants/releases into a service flight recorder
  /// (kAdmissionGranted / kAdmissionReleased events carrying the ticket's
  /// tag and page count). Null detaches. The recorder must outlive the
  /// pool or the detach call.
  void SetFlightRecorder(FlightRecorder* recorder) {
    flight_.store(recorder, std::memory_order_release);
  }

 private:
  friend class AdmissionTicket;

  /// Grants from the queue front while reservations fit. Caller holds mu_.
  void GrantFromFront();

  /// Removes a queued ticket from the FIFO. Caller holds mu_.
  void Unqueue(AdmissionTicket* ticket);

  const uint32_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint32_t available_;  // guarded by mu_
  std::deque<AdmissionTicket*> queue_;
  uint64_t queue_peak_ = 0;
  std::atomic<FlightRecorder*> flight_{nullptr};
};

}  // namespace tempo

#endif  // TEMPO_SERVICE_SHARED_BUFFER_POOL_H_
