#ifndef TEMPO_BENCH_MICRO_UTIL_H_
#define TEMPO_BENCH_MICRO_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/bench_report.h"

namespace tempo::bench {

/// ConsoleReporter subclass that mirrors every finished benchmark run
/// into a BenchReport point, so the micro binaries emit the same
/// BENCH_<name>.json schema as the figure/ablation benches. Console
/// output is unchanged. Point labels are the benchmark names (stable
/// across runs); the recorded values are all wall-clock-derived and thus
/// volatile to bench_compare — micros document performance, the figure
/// benches gate it.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Json& values = report_->Point(run.benchmark_name());
      values.Set("iterations", static_cast<double>(run.iterations));
      // Per-iteration times in the benchmark's own display unit; the
      // "time" substring marks them volatile for comparison purposes.
      values.Set("real_time", run.GetAdjustedRealTime());
      values.Set("cpu_time", run.GetAdjustedCPUTime());
      for (const auto& [name, counter] : run.counters) {
        values.Set(name, counter.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchReport* report_;
};

/// Custom google-benchmark main: runs the registered benchmarks through
/// the capturing reporter and, when TEMPO_BENCH_JSON is set, writes
/// BENCH_<name>.json. Without the env var the behavior is byte-identical
/// to the stock benchmark_main.
inline int MicroMain(const char* name, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchReport report((std::string(name)));
  report.SetConfig("threads", 1.0);  // kept so baselines compare
  JsonCapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string dir = BenchJsonDir();
  if (!dir.empty()) {
    StatusOr<std::string> path = report.WriteFile(dir);
    if (!path.ok()) {
      std::fprintf(stderr, "%s\n", path.status().ToString().c_str());
      return 1;
    }
    std::printf("bench json: %s\n", path->c_str());
  }
  return 0;
}

}  // namespace tempo::bench

/// Drops in for benchmark::benchmark_main; `name` becomes the report's
/// bench name (BENCH_<name>.json).
#define TEMPO_MICRO_MAIN(name)                              \
  int main(int argc, char** argv) {                         \
    return ::tempo::bench::MicroMain(name, argc, argv);     \
  }

#endif  // TEMPO_BENCH_MICRO_UTIL_H_
