#include "parallel/scheduler.h"

#include <string>

#include "common/env.h"

namespace tempo {

StatusOr<SchedulerConfig> ResolveSchedulerConfig(SchedulerConfig requested) {
  // Fallback 0 doubles as the "unset" sentinel: EnvStrictUint64 only
  // accepts values >= 1, so a parsed value can never collide with it.
  const uint32_t env_threads = static_cast<uint32_t>(
      EnvStrictUint64("TEMPO_BENCH_THREADS", 0,
                      std::numeric_limits<uint32_t>::max()));
  SchedulerConfig resolved = requested;
  if (requested.num_threads == 0) {
    resolved.num_threads = env_threads == 0 ? 1 : env_threads;
  } else if (env_threads != 0 && env_threads != requested.num_threads) {
    return Status::InvalidArgument(
        "thread-count conflict: TEMPO_BENCH_THREADS=" +
        std::to_string(env_threads) + " but the caller requested " +
        std::to_string(requested.num_threads) +
        " threads; set exactly one of the two");
  }
  return resolved;
}

StatusOr<std::unique_ptr<Scheduler>> Scheduler::Create(
    SchedulerConfig requested) {
  TEMPO_ASSIGN_OR_RETURN(SchedulerConfig resolved,
                         ResolveSchedulerConfig(requested));
  return std::make_unique<Scheduler>(resolved);
}

}  // namespace tempo
