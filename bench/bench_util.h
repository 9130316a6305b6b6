#ifndef TEMPO_BENCH_BENCH_UTIL_H_
#define TEMPO_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>

#include "common/env.h"
#include "common/format.h"
#include "core/partition_join.h"
#include "obs/bench_report.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "parallel/scheduler.h"
#include "service/join_request.h"
#include "workload/generator.h"
#include "workload/paper_params.h"

namespace tempo::bench {

/// Strict positive-integer env parser: EnvStrictUint64 (common/env.h)
/// narrowed to the uint32 bench knobs. Trailing garbage, overflow and
/// non-numeric values are rejected with a stderr warning and the default
/// is used instead.
inline uint32_t EnvUint(const char* name, uint32_t fallback) {
  return static_cast<uint32_t>(
      EnvStrictUint64(name, fallback,
                      std::numeric_limits<uint32_t>::max()));
}

/// All figure benches honor TEMPO_BENCH_SCALE: relation cardinalities, the
/// long-lived counts and the memory axis are divided by it, preserving
/// every ratio the paper's experiments depend on (the paper itself notes
/// "we are concerned more with ratios of certain parameters as opposed to
/// their absolute values"). 1 = the paper's full 32 MiB configuration.
inline uint32_t BenchScale() { return EnvUint("TEMPO_BENCH_SCALE", 1); }

/// The process-wide bench scheduler, resolved exactly once from
/// TEMPO_BENCH_THREADS through ResolveSchedulerConfig (the strict env
/// parser). Every bench join runs its CPU-bound morsels on this one
/// work-stealing pool — there is no other thread knob, so per-bench
/// thread requests and the env variable can no longer disagree silently.
inline Scheduler* BenchScheduler() {
  static std::unique_ptr<Scheduler> scheduler = [] {
    SchedulerConfig config;
    config.num_threads = 0;  // defer entirely to TEMPO_BENCH_THREADS
    StatusOr<std::unique_ptr<Scheduler>> made = Scheduler::Create(config);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return std::unique_ptr<Scheduler>();  // serial fallback
    }
    return std::move(*made);
  }();
  return scheduler.get();
}

/// Worker threads for the executors' CPU-bound phases (the --threads knob,
/// set via TEMPO_BENCH_THREADS). Defaults to 1, the paper-faithful serial
/// mode. Any value is result- and IoStats-neutral — threading only shifts
/// wall-clock — so every figure bench may be run at any thread count
/// without perturbing the reproduced numbers. bench/micro_parallel is the
/// wall-clock scaling study.
inline uint32_t BenchThreads() {
  Scheduler* scheduler = BenchScheduler();
  return scheduler == nullptr ? 1 : scheduler->num_threads();
}

/// TEMPO_BENCH_TRACE=1 runs every RunJoin under an ExecContext and prints
/// the EXPLAIN ANALYZE span tree after the join. Tracing never perturbs
/// the reproduced numbers — charged I/O and output bytes are identical
/// with and without it (the obs_test null-context test locks this in) —
/// so it is safe to leave on for whole figure sweeps.
inline bool BenchTrace() {
  const char* env = std::getenv("TEMPO_BENCH_TRACE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// True when a bench run's span tree has a consumer: either the
/// human-facing EXPLAIN ANALYZE (TEMPO_BENCH_TRACE) or the Perfetto
/// export (TEMPO_TRACE_OUT). When both are off the spans are collected
/// but neither printed nor exported.
inline bool BenchTraced() { return BenchTrace() || !TraceOutPath().empty(); }

/// The per-binary machine-readable report: every figure/ablation bench
/// builds one of these, adds a point per table row, and ends Run() with
/// `return out.Finish();`. Reports are only written when TEMPO_BENCH_JSON
/// is set (see BenchJsonDir()), so default runs are unchanged.
class BenchOutput {
 public:
  explicit BenchOutput(const std::string& name) : report_(name) {
    report_.SetConfig("scale", static_cast<double>(BenchScale()));
    report_.SetConfig("threads", static_cast<double>(BenchThreads()));
  }

  BenchReport& report() { return report_; }

  void SetConfig(const std::string& key, Json value) {
    report_.SetConfig(key, std::move(value));
  }

  void Add(const std::string& label, const std::string& key, double value) {
    report_.Add(label, key, value);
  }

  /// Records the standard values of one join run under point `label`:
  /// actual charged I/O (split and priced), output cardinality, and the
  /// planner's estimates when the run produced them — the est-vs-actual
  /// pair bench_compare and the paper's cost-model validation care about.
  void AddRun(const std::string& label, const JoinRunStats& stats,
              const CostModel& model) {
    Json& values = report_.Point(label);
    values.Set("act_cost", stats.Cost(model));
    values.Set("io_random", stats.io.total_random());
    values.Set("io_sequential", stats.io.total_sequential());
    values.Set("io_ops", stats.io.total_ops());
    values.Set("output_tuples", stats.output_tuples);
    if (stats.Has(Metric::kEstJoinCost)) {
      values.Set("est_join_cost", stats.Get(Metric::kEstJoinCost));
    }
    if (stats.Has(Metric::kEstSampleCost)) {
      values.Set("est_sample_cost", stats.Get(Metric::kEstSampleCost));
    }
    if (stats.Has(Metric::kPlannedCost)) {
      values.Set("planned_cost", stats.Get(Metric::kPlannedCost));
    }
  }

  /// Writes BENCH_<name>.json when TEMPO_BENCH_JSON is set; 0 on success
  /// (or nothing to do), 1 on a failed write — Run()'s exit code.
  int Finish() {
    const std::string dir = BenchJsonDir();
    if (dir.empty()) return 0;
    StatusOr<std::string> path = report_.WriteFile(dir);
    if (!path.ok()) {
      std::fprintf(stderr, "%s\n", path.status().ToString().c_str());
      return 1;
    }
    std::printf("bench json: %s\n", path->c_str());
    return 0;
  }

 private:
  BenchReport report_;
};

/// The paper's workload (Sections 4.2-4.4) scaled by `scale`:
/// 262,144 128-byte tuples over a 1,000,000-chronon lifespan, ~10 tuples
/// per join-attribute value, `long_lived` of them spanning half the
/// lifespan from a start in the first half.
inline WorkloadSpec PaperWorkload(uint32_t scale, uint64_t long_lived,
                                  uint64_t seed) {
  WorkloadSpec spec;
  spec.num_tuples = paper::kTuplesPerRelation / scale;
  spec.num_long_lived = long_lived / scale;
  spec.lifespan = paper::kLifespan;
  spec.distinct_keys = paper::kDistinctKeys / scale;
  spec.tuple_bytes = paper::kTupleBytes;
  spec.seed = seed;
  return spec;
}

/// Runs one join. The output relation is uncharged (the paper omits result
/// I/O, which every algorithm pays identically) and deleted afterwards.
/// Generation I/O is invisible: the accountant is reset before the run.
///
/// When `report`/`label` are given, the run's standard values plus its
/// wall-clock go into that report point. With TEMPO_TRACE_OUT set, the
/// run's Perfetto trace is written there (each traced run overwrites the
/// file, so the last RunJoin of a sweep wins — point a single-join smoke
/// at it, e.g. fig4's traced end-to-end join).
inline StatusOr<JoinRunStats> RunJoin(JoinExecutor executor,
                                      StoredRelation* r, StoredRelation* s,
                                      uint32_t buffer_pages,
                                      const CostModel& model,
                                      uint64_t seed = 42,
                                      BenchOutput* report = nullptr,
                                      const std::string& label = "") {
  Disk* disk = r->disk();
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(disk, layout.output, "bench.out");
  TEMPO_RETURN_IF_ERROR(out.SetCharged(false));
  disk->accountant().Reset();

  // The context always carries the shared bench scheduler (serial unless
  // TEMPO_BENCH_THREADS says otherwise); span collection stays bounded,
  // and printing/export only happens when tracing was requested.
  ExecContext ctx;
  ctx.SetScheduler(BenchScheduler());
  JoinRequest request;
  request.From(r, s)
      .Using(executor)
      .BufferPages(buffer_pages)
      .Model(model)
      .Seed(seed);
  const auto wall_start = std::chrono::steady_clock::now();
  StatusOr<JoinRunStats> stats = tempo::RunJoin(request, &out, &ctx);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (BenchTraced() && stats.ok()) {
    if (BenchTrace()) {
      ExplainOptions eopts;
      eopts.cost_model = model;
      std::printf("\nEXPLAIN ANALYZE (%s, buffSize=%u)\n%s\n",
                  JoinExecutorName(executor), buffer_pages,
                  ExplainAnalyze(ctx, eopts).c_str());
    }
    TraceExportOptions topts;
    topts.cost_model = model;
    Status trace_st = MaybeWriteTraceFromEnv(ctx, topts);
    if (!trace_st.ok()) {
      std::fprintf(stderr, "%s\n", trace_st.ToString().c_str());
    }
  }
  if (report != nullptr && stats.ok() && !label.empty()) {
    report->AddRun(label, *stats, model);
    report->Add(label, "wall_seconds", wall_seconds);
  }
  disk->DeleteFile(out.file_id()).ok();
  return stats;
}

/// Formats a weighted cost for table cells.
inline std::string Fmt(double cost) {
  return FormatWithCommas(static_cast<int64_t>(cost + 0.5));
}

inline void PrintHeader(const std::string& title) {
  std::printf("%s\n", title.c_str());
  std::printf("%s\n\n", std::string(title.size(), '=').c_str());
}

}  // namespace tempo::bench

#endif  // TEMPO_BENCH_BENCH_UTIL_H_
