#ifndef TEMPO_COMMON_ENV_H_
#define TEMPO_COMMON_ENV_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/statusor.h"

namespace tempo {

/// Strict positive-integer env parser, shared by the bench knobs
/// (TEMPO_BENCH_SCALE) and the runtime knobs
/// (TEMPO_RADIX_THRESHOLD_MB). The whole value must be a decimal integer
/// in [1, max] (strtoll endptr check): trailing garbage ("16x", "8 "),
/// overflow and non-numeric values are *rejected* with a stderr warning
/// naming the bad value rather than silently half-parsed, and `fallback`
/// is used instead.
inline uint64_t EnvStrictUint64(
    const char* name, uint64_t fallback,
    uint64_t max = static_cast<uint64_t>(
        std::numeric_limits<long long>::max())) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v < 1 ||
      static_cast<uint64_t>(v) > max) {
    std::fprintf(stderr,
                 "warning: ignoring malformed %s=\"%s\" (want a positive "
                 "decimal integer); using %llu\n",
                 name, env, static_cast<unsigned long long>(fallback));
    return fallback;
  }
  return static_cast<uint64_t>(v);
}

/// Error-returning variant of the strict parser for knobs where a
/// malformed value must fail the caller instead of falling back (the
/// telemetry knobs: a typo'd TEMPO_SLOW_QUERY_MS silently logging nothing
/// would defeat the point of setting it). Unset or empty returns
/// `fallback`; anything else must be a whole decimal integer in
/// [min, max] or the result is InvalidArgument naming the variable and
/// the offending value. `min` may be 0 (TEMPO_SLOW_QUERY_MS=0 means "log
/// every query").
inline StatusOr<uint64_t> EnvStrictUint64Or(
    const char* name, uint64_t fallback, uint64_t min = 1,
    uint64_t max = static_cast<uint64_t>(
        std::numeric_limits<long long>::max())) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v < 0 ||
      static_cast<uint64_t>(v) < min || static_cast<uint64_t>(v) > max) {
    return Status::InvalidArgument(
        std::string(name) + "=\"" + env + "\" is not a decimal integer in [" +
        std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return static_cast<uint64_t>(v);
}

}  // namespace tempo

#endif  // TEMPO_COMMON_ENV_H_
