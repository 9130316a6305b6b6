#ifndef TEMPO_STORAGE_IO_ACCOUNTANT_H_
#define TEMPO_STORAGE_IO_ACCOUNTANT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/histogram.h"

namespace tempo {

/// Weights for the two I/O classes. The paper measures "cost as the number
/// of I/O operations performed by an algorithm, distinguishing between the
/// higher cost of random access and the lower cost of sequential access"
/// (Section 4.1) and runs trials at random:sequential ratios 2:1, 5:1 and
/// 10:1 (Section 4.2).
struct CostModel {
  double random_weight = 5.0;
  double sequential_weight = 1.0;

  static CostModel Ratio(double ratio) { return CostModel{ratio, 1.0}; }

  double Cost(uint64_t random_ops, uint64_t sequential_ops) const {
    return static_cast<double>(random_ops) * random_weight +
           static_cast<double>(sequential_ops) * sequential_weight;
  }

  /// One pass over `pages` pages of one file: a seek, then sequential
  /// I/O.
  double PassCost(uint64_t pages) const {
    return pages == 0 ? 0.0 : Cost(1, pages - 1);
  }
};

/// Raw I/O counters. Subtractable so callers can measure a phase:
///   IoStats before = disk.accountant().stats();
///   ... run phase ...
///   IoStats phase = disk.accountant().stats() - before;
struct IoStats {
  uint64_t random_reads = 0;
  uint64_t sequential_reads = 0;
  uint64_t random_writes = 0;
  uint64_t sequential_writes = 0;

  uint64_t total_random() const { return random_reads + random_writes; }
  uint64_t total_sequential() const {
    return sequential_reads + sequential_writes;
  }
  uint64_t total_ops() const { return total_random() + total_sequential(); }

  double Cost(const CostModel& model) const {
    return model.Cost(total_random(), total_sequential());
  }

  IoStats operator-(const IoStats& other) const {
    return IoStats{random_reads - other.random_reads,
                   sequential_reads - other.sequential_reads,
                   random_writes - other.random_writes,
                   sequential_writes - other.sequential_writes};
  }
  IoStats operator+(const IoStats& other) const {
    return IoStats{random_reads + other.random_reads,
                   sequential_reads + other.sequential_reads,
                   random_writes + other.random_writes,
                   sequential_writes + other.sequential_writes};
  }
  bool operator==(const IoStats& other) const {
    return random_reads == other.random_reads &&
           sequential_reads == other.sequential_reads &&
           random_writes == other.random_writes &&
           sequential_writes == other.sequential_writes;
  }

  std::string ToString() const;
};

/// How accesses are classified as random vs sequential.
enum class HeadModel {
  /// Sequential iff the access continues *that file's* previous position
  /// (page p after p-1 or p of the same file), regardless of interleaved
  /// traffic to other files. This matches the paper's cost statements
  /// (Appendix A.1: the inner partition and the tuple cache are each "read
  /// nearly sequentially" even though their reads interleave), as if each
  /// logical stream kept a dedicated arm.
  kPerFile,
  /// Sequential iff the access continues the single device head's last
  /// position: any switch between files (or a backward/forward jump) is a
  /// seek. Stricter; interleaved streams pay for every switch. Offered for
  /// the sensitivity ablation.
  kSingleHead,
};

/// Classifies each page access as random or sequential and accumulates
/// counters. Reading a k-page run of one file costs 1 random + (k-1)
/// sequential accesses under either model; the models differ only in how
/// interleaved streams interact (see HeadModel).
///
/// Thread-safe: Record*/stats()/Reset may be called concurrently (queries
/// that run at once on one disk share its base accountant unless each
/// binds its own). Every executor issues a query's charged I/O from that
/// query's thread in the paper's order, so charged counts are the same
/// however many queries run at once, under either head model.
///
/// The accountant keeps no per-phase state: a phase's I/O is the delta of
/// stats() over the phase, which is how the run contract measures a run
/// and how tracer spans measure theirs (obs/trace.h).
class IoAccountant {
 public:
  IoAccountant() = default;

  HeadModel head_model() const {
    std::lock_guard<std::mutex> lock(mu_);
    return head_model_;
  }
  void set_head_model(HeadModel m) {
    std::lock_guard<std::mutex> lock(mu_);
    head_model_ = m;
  }

  /// Records an access. `charged=false` accesses (e.g. the shared result
  /// file excluded from algorithm comparisons) are neither counted nor
  /// allowed to move the head.
  void RecordRead(uint64_t file_id, uint64_t page_no, bool charged);
  void RecordWrite(uint64_t file_id, uint64_t page_no, bool charged);

  /// Optional page-read latency sink, installed by an ExecContext when it
  /// binds this accountant. While set, Disk times each page read and
  /// records the wall-clock microseconds here; while null (the default,
  /// and any run without an ExecContext), no clock is ever read — the
  /// zero-overhead guarantee of the null-context mode. The sink must
  /// outlive its installation; ExecContext clears it on destruction.
  void SetLatencySink(LogHistogram* sink) {
    latency_sink_.store(sink, std::memory_order_release);
  }
  /// Clears the sink only if it is still `sink` (a newer context that
  /// re-bound the accountant is left undisturbed).
  void ClearLatencySink(LogHistogram* sink) {
    latency_sink_.compare_exchange_strong(sink, nullptr,
                                          std::memory_order_acq_rel);
  }
  LogHistogram* latency_sink() const {
    return latency_sink_.load(std::memory_order_acquire);
  }

  /// Snapshot of the counters.
  IoStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = IoStats{};
    has_position_ = false;
    file_positions_.clear();
  }

 private:
  bool IsSequential(uint64_t file_id, uint64_t page_no) const;
  void Advance(uint64_t file_id, uint64_t page_no);

  mutable std::mutex mu_;
  IoStats stats_;
  HeadModel head_model_ = HeadModel::kPerFile;
  // kSingleHead state.
  bool has_position_ = false;
  uint64_t last_file_ = 0;
  uint64_t last_page_ = 0;
  // kPerFile state: last page touched per file.
  std::unordered_map<uint64_t, uint64_t> file_positions_;
  std::atomic<LogHistogram*> latency_sink_{nullptr};
};

}  // namespace tempo

#endif  // TEMPO_STORAGE_IO_ACCOUNTANT_H_
