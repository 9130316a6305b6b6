#ifndef TEMPO_PARALLEL_SCHEDULER_H_
#define TEMPO_PARALLEL_SCHEDULER_H_

#include <cstdint>

namespace tempo {

/// A thread-count setting that nothing reads. Every phase of a join runs
/// on the calling thread in the paper's order, and each QueryService
/// query runs on its own thread, so there is no worker pool to size
/// (DESIGN.md §4c). Kept, with Scheduler, ExecContext::SetScheduler and
/// QueryServiceOptions::scheduler, only so perfbench keeps compiling.
struct SchedulerConfig {
  uint32_t num_threads = 1;
  uint32_t morsel_pages = 4;
};

/// Holds a SchedulerConfig and starts no thread.
class Scheduler {
 public:
  explicit Scheduler(const SchedulerConfig& config) : config_(config) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  uint32_t num_threads() const { return config_.num_threads; }
  const SchedulerConfig& config() const { return config_; }

 private:
  SchedulerConfig config_;
};

}  // namespace tempo

#endif  // TEMPO_PARALLEL_SCHEDULER_H_
