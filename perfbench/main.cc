// tempo's benchmark. Usage (see README.md):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   perfbench --self-test
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 every
// per-layer metric. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.h"
#include "perfbench.h"

namespace tempo::perfbench {
namespace {

/// Every knob the library reads from the environment. Cleared before
/// anything runs, so a workload is the same whatever the caller exported.
void PinEnvironment() {
  for (const char* knob :
       {"TEMPO_BENCH_THREADS", "TEMPO_RADIX_THRESHOLD_MB", "TEMPO_TRACE_OUT",
        "TEMPO_TELEMETRY_OUT", "TEMPO_TELEMETRY_PERIOD_MS",
        "TEMPO_SLOW_QUERY_MS", "TEMPO_FLIGHT_OUT", "TEMPO_FLIGHT_EVENTS",
        "TEMPO_BENCH_JSON"}) {
    unsetenv(knob);
  }
}

double SafeRatio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Status RunEndToEnd(const Workload& w, uint64_t seed, double seconds,
                   RunResult* result) {
  TEMPO_ASSIGN_OR_RETURN(Inputs in, MakeInputs(w, seed));
  uint64_t checks = 0;
  uint64_t check_failures = 0;
  TEMPO_ASSIGN_OR_RETURN(
      Expected expected,
      ComputeExpected(w, seed, &in, &checks, &check_failures));
  if (w.sessions > 0) in = Inputs{};

  LoopOptions options;
  options.seconds = seconds;
  LoopOutput loop;
  TEMPO_RETURN_IF_ERROR(RunLoop(w, seed, expected, &in, options, &loop));
  const LoopResult& r = loop.untraced;

  // Mean latency, throughput and CPU per query of each window of the loop.
  std::vector<double> window_ms;
  std::vector<double> window_qps;
  std::vector<double> window_cpu_ms;
  for (const Window& win : r.windows) {
    if (win.completed == 0) continue;
    const double done = static_cast<double>(win.completed);
    window_ms.push_back(win.latency_ms);
    window_qps.push_back(SafeRatio(done, win.wall_s));
    window_cpu_ms.push_back(win.cpu_s * 1e3 / done);
  }

  const double completed = static_cast<double>(r.completed);
  MetricSet& m = result->metrics;
  // The fast windows of the loop: neighbours on a shared host slow whole
  // stretches of a run, by a share that changes from run to run, so a mean,
  // median or tail over the run moves with the host. The fastest tenth of
  // the windows moves with the program (README.md).
  m.Put("query_ms_win_p10", Percentile(window_ms, 0.1), "ms");
  m.Put("throughput_qps", Percentile(window_qps, 0.9), "queries/s");
  m.Put("cpu_ms_per_query", Percentile(window_cpu_ms, 0.1), "ms");
  m.Put("charged_io_cost", SafeRatio(r.charged_cost, completed), "weighted_ops");
  m.Put("peak_rss_mb", PeakRssMiB(), "MiB");
  m.Put("query_ok_ratio",
        SafeRatio(static_cast<double>(r.attempted - r.failed),
                  static_cast<double>(r.attempted)),
        "ratio");
  m.Put("setup_s", Median(r.setup_s), "s");
  std::printf("%s: %llu timed queries, %llu failed; %llu checks, %llu failed\n",
              w.name.c_str(), static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(check_failures));

  result->attempted = r.attempted + checks;
  result->failed = r.failed + check_failures;
  result->correct = result->failed == 0;
  return Status::OK();
}

namespace {

/// The benchmark's own test: a deliberately wrong expected digest must turn
/// every query into a failure, and the right one must leave none, on a
/// reduced copy of a serial and of the service workload.
int SelfTest() {
  int problems = 0;
  for (const char* name : {"paged-paper", "service-mix"}) {
    Workload w = *FindWorkload(name);
    w.tuples /= 32;
    w.distinct_keys /= 32;
    w.long_lived /= 32;
    w.buffer_pages = std::max<uint32_t>(8, w.buffer_pages / 32);
    w.pool_pages = 2 * w.buffer_pages;
    StatusOr<Inputs> in = MakeInputs(w, /*seed=*/7);
    uint64_t checks = 0;
    uint64_t check_failures = 0;
    StatusOr<Expected> expected =
        in.ok() ? ComputeExpected(w, 7, &*in, &checks, &check_failures)
                : StatusOr<Expected>(in.status());
    if (!expected.ok() || check_failures != 0) {
      std::printf("self-test %s: expected-value pass failed\n", name);
      ++problems;
      continue;
    }
    for (bool corrupt : {false, true}) {
      LoopOptions options;
      options.warmup_seconds = 0.0;
      options.seconds = 0.0;
      options.min_queries = 12;
      options.corrupt_expected = corrupt;
      LoopOutput loop;
      Status st = RunLoop(w, 7, *expected, &*in, options, &loop);
      const LoopResult& r = loop.untraced;
      const bool ok = st.ok() && r.attempted > 0 &&
                      r.failed == (corrupt ? r.attempted : 0);
      std::printf("self-test %s, %s digest: %llu attempted, %llu failed: %s\n",
                  name, corrupt ? "wrong" : "right",
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed),
                  ok ? "ok" : "UNEXPECTED");
      if (!ok) ++problems;
    }
  }
  return problems == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paged-paper|inmem-radix|"
               "service-mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace tempo::perfbench

int main(int argc, char** argv) {
  using namespace tempo;
  using namespace tempo::perfbench;
  PinEnvironment();

  std::string workload;
  std::string trace_out;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool seed_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      seed_set = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || seconds <= 0.0) return Usage();
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      trace = value[0] - '0';
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || !seed_set || seconds <= 0.0 || trace < 0) {
    return Usage();
  }

  RunResult result;
  Status st = trace == 1 ? RunTraced(*w, seed, seconds, trace_out, &result)
                         : RunEndToEnd(*w, seed, seconds, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }

  Json metrics = Json::Object();
  for (const auto& [name, value_unit] : result.metrics.items()) {
    std::printf("%-36s %16.6f %s\n", name.c_str(), value_unit.first,
                value_unit.second.c_str());
    Json entry = Json::Object();
    entry.Set("value", value_unit.first);
    entry.Set("unit", value_unit.second);
    metrics.Set(name, std::move(entry));
  }
  Json doc = Json::Object();
  doc.Set("correct", result.correct);
  doc.Set("attempted", result.attempted);
  doc.Set("failed", result.failed);
  doc.Set("metrics", std::move(metrics));
  std::printf("%s\n", doc.Dump().c_str());
  return 0;
}
