// Tests for the machine-readable export layer: Perfetto trace JSON
// (structure, determinism in include_timing=false mode, I/O conservation
// against the run's charged IoStats), histogram recording/merging under
// concurrency, metric snapshots, and the bench report schema +
// regression comparer behind tools/bench_compare.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "obs/bench_compare.h"
#include "obs/bench_report.h"
#include "obs/export.h"
#include "service/join_request.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"sval", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& v, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(v)}, Interval(vs, ve));
}

// Deterministic workload big enough to force real partitioning.
struct JoinInputs {
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
};

JoinInputs PaddedInputs() {
  JoinInputs in;
  Random rng(7);
  std::string pad(120, 'r');
  for (const Tuple& t : RandomTuples(rng, 300, 20, 600, 0.3)) {
    in.r_tuples.push_back(
        T(t.value(0).AsInt64(), pad, t.interval().start(), t.interval().end()));
  }
  for (const Tuple& t : RandomTuples(rng, 250, 20, 600, 0.3)) {
    in.s_tuples.push_back(S(t.value(0).AsInt64(), "s", t.interval().start(),
                            t.interval().end()));
  }
  return in;
}

struct TracedRun {
  JoinRunStats stats;
  std::string trace_text;  // TraceToJson(..., include_timing=false), Dump(2)
};

TracedRun RunSerialPartitionJoin(const JoinInputs& in) {
  TracedRun run;
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  auto layout_or = DeriveNaturalJoinLayout(TestSchema(), SSchema());
  EXPECT_TRUE(layout_or.ok());
  StoredRelation out(&disk, layout_or.value().output, "out");

  ExecContext ctx;
  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kPartition).BufferPages(4);
  auto stats_or = RunJoin(req, &out, &ctx);
  EXPECT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  if (!stats_or.ok()) return run;
  run.stats = std::move(stats_or).value();

  TraceExportOptions topts;
  topts.include_timing = false;
  run.trace_text = TraceToJson(ctx, topts).Dump(2);
  return run;
}

// ---------------------------------------------------------------------
// Perfetto trace export
// ---------------------------------------------------------------------

/// Golden-mode determinism: with include_timing=false the entire trace
/// document — timestamps, durations, args, metrics — is synthesized from
/// charged I/O, so two identical serial runs emit byte-identical JSON.
TEST(TraceExportTest, GoldenModeIsByteIdenticalAcrossRuns) {
  JoinInputs in = PaddedInputs();
  TracedRun a = RunSerialPartitionJoin(in);
  TracedRun b = RunSerialPartitionJoin(in);
  ASSERT_FALSE(a.trace_text.empty());
  EXPECT_EQ(a.trace_text, b.trace_text);
}

TEST(TraceExportTest, TraceIsWellFormedChromeTraceJson) {
  JoinInputs in = PaddedInputs();
  TracedRun run = RunSerialPartitionJoin(in);

  auto doc_or = Json::Parse(run.trace_text);
  ASSERT_TRUE(doc_or.ok()) << doc_or.status().ToString();
  const Json& doc = *doc_or;

  EXPECT_EQ(doc.NumberOr("schema_version", 0), 1.0);
  ASSERT_NE(doc.Find("traceEvents"), nullptr);
  const Json& events = *doc.Find("traceEvents");
  ASSERT_TRUE(events.is_array());

  size_t metadata = 0, spans = 0;
  bool saw_partition_phase = false;
  double prev_end = -1.0;
  for (const Json& e : events.elements()) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.Find("ph")->AsString();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");  // no counter events in golden mode
    ++spans;
    EXPECT_GE(e.NumberOr("ts", -1), 0.0);
    EXPECT_GE(e.NumberOr("dur", 0), 1.0);  // min 1 us per span
    const Json* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->Find("phase"), nullptr);
    EXPECT_NE(args->Find("io_excl"), nullptr);
    EXPECT_NE(args->Find("cost_excl"), nullptr);
    EXPECT_NE(args->Find("cost_incl"), nullptr);
    if (args->Find("phase")->AsString() == "partition join") {
      saw_partition_phase = true;
    }
    // Top-level spans are siblings laid out back to back; nested spans
    // start inside their parent. Either way ts never goes backwards
    // past the previous event's start.
    EXPECT_GE(e.NumberOr("ts", 0), 0.0);
    prev_end = e.NumberOr("ts", 0) + e.NumberOr("dur", 0);
    EXPECT_GT(prev_end, 0.0);
  }
  EXPECT_EQ(metadata, 2u);  // process_name + the span tree's thread_name
  EXPECT_GT(spans, 3u);     // plan/partition/join at minimum
  EXPECT_TRUE(saw_partition_phase);

  // Timing-derived fields must be absent in golden mode.
  EXPECT_EQ(run.trace_text.find("morsel_busy_seconds"), std::string::npos);
  EXPECT_EQ(run.trace_text.find("worker busy"), std::string::npos);
}

/// The conservation guarantee: summing the exclusive per-span I/O over
/// all span events reproduces the run's charged IoStats exactly, and the
/// document's total_io agrees.
TEST(TraceExportTest, ExclusiveSpanIoSumsToRunIoStats) {
  JoinInputs in = PaddedInputs();
  TracedRun run = RunSerialPartitionJoin(in);

  auto doc_or = Json::Parse(run.trace_text);
  ASSERT_TRUE(doc_or.ok());
  const Json& doc = *doc_or;

  double rr = 0, sr = 0, rw = 0, sw = 0;
  for (const Json& e : doc.Find("traceEvents")->elements()) {
    if (e.Find("ph")->AsString() != "X") continue;
    const Json* io = e.Find("args")->Find("io_excl");
    ASSERT_NE(io, nullptr);
    rr += io->NumberOr("random_reads", 0);
    sr += io->NumberOr("sequential_reads", 0);
    rw += io->NumberOr("random_writes", 0);
    sw += io->NumberOr("sequential_writes", 0);
  }
  EXPECT_EQ(rr, static_cast<double>(run.stats.io.random_reads));
  EXPECT_EQ(sr, static_cast<double>(run.stats.io.sequential_reads));
  EXPECT_EQ(rw, static_cast<double>(run.stats.io.random_writes));
  EXPECT_EQ(sw, static_cast<double>(run.stats.io.sequential_writes));

  const Json* total = doc.Find("total_io");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->NumberOr("random_reads", -1), rr);
  EXPECT_EQ(total->NumberOr("sequential_reads", -1), sr);
  EXPECT_EQ(total->NumberOr("random_writes", -1), rw);
  EXPECT_EQ(total->NumberOr("sequential_writes", -1), sw);
}

TEST(TraceExportTest, WriteTraceFileRoundTrips) {
  JoinInputs in = PaddedInputs();
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  auto layout_or = DeriveNaturalJoinLayout(TestSchema(), SSchema());
  ASSERT_TRUE(layout_or.ok());
  StoredRelation out(&disk, layout_or.value().output, "out");
  ExecContext ctx;
  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kPartition).BufferPages(4);
  ASSERT_TRUE(RunJoin(req, &out, &ctx).ok());

  const std::string path = ::testing::TempDir() + "/tempo_trace_test.json";
  TraceExportOptions topts;
  topts.include_timing = false;
  ASSERT_TRUE(WriteTraceFile(ctx, path, topts).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->NumberOr("schema_version", 0), 1.0);
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(LogHistogram::BucketIndex(-3.0), 0u);
  EXPECT_EQ(LogHistogram::BucketIndex(0.5), 0u);
  EXPECT_EQ(LogHistogram::BucketIndex(1.0), 1u);
  EXPECT_EQ(LogHistogram::BucketIndex(1.99), 1u);
  EXPECT_EQ(LogHistogram::BucketIndex(2.0), 2u);
  EXPECT_EQ(LogHistogram::BucketIndex(1024.0), 11u);
  EXPECT_EQ(LogHistogram::BucketIndex(1e300), LogHistogram::kNumBuckets - 1);
  EXPECT_EQ(LogHistogram::BucketUpperBound(0), 1.0);
  EXPECT_EQ(LogHistogram::BucketUpperBound(1), 2.0);   // bucket 1 = [1, 2)
  EXPECT_EQ(LogHistogram::BucketUpperBound(11), 2048.0);
  EXPECT_TRUE(std::isinf(
      LogHistogram::BucketUpperBound(LogHistogram::kNumBuckets - 1)));
}

TEST(HistogramTest, RecordAndStats) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  h.Record(3.0);
  h.Record(5.0);
  h.Record(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 108.0);
  EXPECT_EQ(h.min(), 3.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_EQ(h.mean(), 36.0);
  EXPECT_EQ(h.bucket_count(LogHistogram::BucketIndex(3.0)), 1u);
  EXPECT_EQ(h.bucket_count(LogHistogram::BucketIndex(5.0)), 1u);
  EXPECT_EQ(h.bucket_count(LogHistogram::BucketIndex(100.0)), 1u);
}

/// Merge correctness under 1 thread and 4 threads: the merged totals are
/// exact regardless of how samples were spread over recorders. The
/// 4-thread variant records concurrently into one shared histogram AND
/// merges per-thread histograms concurrently into another (this is the
/// TSan target).
TEST(HistogramTest, MergeMatchesAcrossThreadCounts) {
  const int kSamplesPerThread = 5000;
  auto expected_total = [&](int threads) {
    return static_cast<uint64_t>(threads) * kSamplesPerThread;
  };

  for (int threads : {1, 4}) {
    LogHistogram shared;               // concurrent Record target
    LogHistogram merged;               // concurrent Merge target
    std::vector<LogHistogram> locals(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < kSamplesPerThread; ++i) {
          // Deterministic sample stream, same multiset for any split.
          double v = static_cast<double>((t * kSamplesPerThread + i) % 977);
          shared.Record(v);
          locals[t].Record(v);
        }
        merged.Merge(locals[t]);
      });
    }
    for (auto& w : workers) w.join();

    EXPECT_EQ(shared.count(), expected_total(threads));
    EXPECT_EQ(merged.count(), expected_total(threads));
    EXPECT_EQ(shared.sum(), merged.sum());
    EXPECT_EQ(shared.min(), merged.min());
    EXPECT_EQ(shared.max(), merged.max());
    for (size_t b = 0; b < LogHistogram::kNumBuckets; ++b) {
      EXPECT_EQ(shared.bucket_count(b), merged.bucket_count(b)) << b;
    }
  }
}

TEST(HistogramTest, HistogramToJsonEmitsNonEmptyBuckets) {
  LogHistogram h;
  h.Record(0.5);
  h.Record(3.0);
  h.Record(3.5);
  HistogramDef def = GetHistogramDef(Hist::kCacheOccupancyTuples);
  Json j = HistogramToJson(def, h);
  EXPECT_EQ(j.Find("unit")->AsString(), def.unit);
  EXPECT_EQ(j.NumberOr("count", 0), 3.0);
  EXPECT_EQ(j.NumberOr("min", -1), 0.5);
  EXPECT_EQ(j.NumberOr("max", -1), 3.5);
  const Json& buckets = *j.Find("buckets");
  ASSERT_EQ(buckets.size(), 2u);  // bucket 0 (one sample), [2,4) (two)
  EXPECT_EQ(buckets.elements()[0].NumberOr("count", 0), 1.0);
  EXPECT_EQ(buckets.elements()[1].NumberOr("le", 0), 4.0);
  EXPECT_EQ(buckets.elements()[1].NumberOr("count", 0), 2.0);
}

TEST(MetricsJsonTest, SnapshotRoundTripsAndReducesTimingHistograms) {
  MetricsRegistry m;
  m.Set(Metric::kPartitions, 7);
  m.Record(Hist::kCacheOccupancyTuples, 10.0);
  m.Record(Hist::kCacheOccupancyTuples, 20.0);
  m.Record(Hist::kPageReadLatencyUs, 123.0);  // wall-clock-valued

  Json full = MetricsToJson(m, /*include_timing=*/true);
  auto full_rt = Json::Parse(full.Dump());
  ASSERT_TRUE(full_rt.ok());
  EXPECT_EQ(full_rt->Find("scalars")->NumberOr("partitions", 0), 7.0);
  const Json* occ = full_rt->Find("histograms")->Find("cache_occupancy_tuples");
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->NumberOr("sum", 0), 30.0);
  EXPECT_NE(full_rt->Find("histograms")->Find("page_read_latency_us")
                ->Find("sum"),
            nullptr);

  // Golden mode: "us" histograms keep only the deterministic count.
  Json reduced = MetricsToJson(m, /*include_timing=*/false);
  const Json* lat = reduced.Find("histograms")->Find("page_read_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->NumberOr("count", 0), 1.0);
  EXPECT_EQ(lat->Find("sum"), nullptr);
  // Non-timing histograms keep their full shape.
  EXPECT_NE(reduced.Find("histograms")->Find("cache_occupancy_tuples")
                ->Find("sum"),
            nullptr);
}

// ---------------------------------------------------------------------
// Bench report schema + comparer
// ---------------------------------------------------------------------

BenchReport MakeReport(double scale, double cost) {
  BenchReport report("fig4_cost_tradeoff");
  report.SetConfig("scale", scale);
  report.SetConfig("threads", 1);
  report.SetConfig("seed", 700);
  report.SetConfig("cost_model_ratio", 5.0);
  report.Add("partSize=4", "c_total", cost);
  report.Add("partSize=4", "partitions", 4);
  report.Add("end-to-end partition join", "act_cost", cost * 2);
  report.Add("end-to-end partition join", "wall_seconds", 0.123);
  return report;
}

TEST(BenchReportTest, ToJsonValidatesAndRoundTrips) {
  BenchReport report = MakeReport(64, 1000.0);
  Json doc = report.ToJson();
  EXPECT_TRUE(BenchReport::Validate(doc).ok());

  auto parsed = Json::Parse(doc.Dump(2));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(BenchReport::Validate(*parsed).ok());
  EXPECT_EQ(parsed->Find("bench")->AsString(), "fig4_cost_tradeoff");
  EXPECT_EQ(parsed->NumberOr("schema_version", 0), 1.0);
  EXPECT_EQ(parsed->Find("config")->NumberOr("scale", 0), 64.0);
  EXPECT_EQ(parsed->Find("points")->size(), 2u);
}

TEST(BenchReportTest, ValidateRejectsMalformedDocuments) {
  Json doc = MakeReport(64, 1000.0).ToJson();

  Json no_version = doc;
  no_version.Set("schema_version", 99);
  EXPECT_FALSE(BenchReport::Validate(no_version).ok());

  Json bad_points = doc;
  bad_points.Set("points", "not an array");
  EXPECT_FALSE(BenchReport::Validate(bad_points).ok());

  Json dup = doc;
  Json extra = Json::Object();
  extra.Set("label", "partSize=4");  // duplicate label
  extra.Set("values", Json::Object());
  dup.Find("points")->Append(std::move(extra));
  EXPECT_FALSE(BenchReport::Validate(dup).ok());

  Json non_numeric = doc;
  non_numeric.Find("points")->elements()[0].Find("values")->Set("c_total",
                                                                "oops");
  EXPECT_FALSE(BenchReport::Validate(non_numeric).ok());
}

TEST(BenchCompareTest, VolatileKeyClassification) {
  EXPECT_TRUE(IsVolatileBenchKey("wall_seconds"));
  EXPECT_TRUE(IsVolatileBenchKey("real_time"));
  EXPECT_TRUE(IsVolatileBenchKey("page_read_latency_p99"));
  EXPECT_TRUE(IsVolatileBenchKey("parallel_efficiency"));
  EXPECT_TRUE(IsVolatileBenchKey("duration_us"));
  EXPECT_TRUE(IsVolatileBenchKey("iterations"));
  EXPECT_FALSE(IsVolatileBenchKey("act_cost"));
  EXPECT_FALSE(IsVolatileBenchKey("io_random"));
  EXPECT_FALSE(IsVolatileBenchKey("output_tuples"));
}

TEST(BenchCompareTest, TelemetryKeysAreVolatile) {
  // The telemetry time-series keys added by the observability layer are
  // wall-clock functions of the sampler period; a report carrying them
  // must stay comparable against a pre-telemetry baseline.
  EXPECT_TRUE(IsVolatileBenchKey("telemetry_samples"));
  EXPECT_TRUE(IsVolatileBenchKey("telemetry_records"));
  EXPECT_TRUE(IsVolatileBenchKey("ts_us"));
  EXPECT_TRUE(IsVolatileBenchKey("slow_queries_logged"));
  EXPECT_TRUE(IsVolatileBenchKey("flight_events_appended"));
  EXPECT_TRUE(IsVolatileBenchKey("admission_queue_peak"));
  // ... but the paper's seeded Kolmogorov sampler counts are
  // deterministic gated keys (fig4 baseline) and must keep being compared.
  EXPECT_FALSE(IsVolatileBenchKey("samples"));
  EXPECT_FALSE(IsVolatileBenchKey("sampled_by_scan"));
  EXPECT_FALSE(IsVolatileBenchKey("est_sample_cost"));
}

TEST(BenchCompareTest, ReportWithTelemetryKeysStaysComparable) {
  // Telemetry keys that drifted wildly between runs are skipped as
  // volatile, not flagged as regressions — the sampler tick count depends
  // on wall-clock, never on correctness.
  Json base = MakeReport(64, 1000.0).ToJson();
  Json current = MakeReport(64, 1000.0).ToJson();
  Json* base_values = base.Find("points")->elements()[0].Find("values");
  Json* cur_values = current.Find("points")->elements()[0].Find("values");
  base_values->Set("telemetry_samples", 3);
  cur_values->Set("telemetry_samples", 170);
  base_values->Set("flight_events_appended", 10);
  cur_values->Set("flight_events_appended", 12345);
  base_values->Set("slow_queries_logged", 0);
  cur_values->Set("slow_queries_logged", 8);
  auto result = CompareBenchReports(base, current);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok()) << result->Render();
  EXPECT_EQ(result->num_regressions(), 0u);
  EXPECT_GE(result->values_skipped_volatile, 3u);
}

TEST(BenchCompareTest, IdenticalReportsPass) {
  Json base = MakeReport(64, 1000.0).ToJson();
  auto result = CompareBenchReports(base, base);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->points_compared, 2u);
  EXPECT_EQ(result->num_regressions(), 0u);
  EXPECT_GT(result->values_skipped_volatile, 0u);  // wall_seconds skipped
}

TEST(BenchCompareTest, RegressionBeyondToleranceFails) {
  Json base = MakeReport(64, 1000.0).ToJson();
  Json worse = MakeReport(64, 1100.0).ToJson();  // +10%
  auto result = CompareBenchReports(base, worse);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
  EXPECT_GE(result->num_regressions(), 1u);
  const std::string rendered = result->Render();
  EXPECT_NE(rendered.find("REGRESSION"), std::string::npos) << rendered;
}

TEST(BenchCompareTest, ImprovementIsReportedButPasses) {
  Json base = MakeReport(64, 1000.0).ToJson();
  Json better = MakeReport(64, 800.0).ToJson();  // -20%
  auto result = CompareBenchReports(base, better);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_GE(result->diffs.size(), 1u);
  EXPECT_EQ(result->num_regressions(), 0u);
}

TEST(BenchCompareTest, WideToleranceForgivesRegression) {
  Json base = MakeReport(64, 1000.0).ToJson();
  Json worse = MakeReport(64, 1100.0).ToJson();
  BenchCompareOptions options;
  options.tolerance = 0.25;
  auto result = CompareBenchReports(base, worse, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
}

TEST(BenchCompareTest, DifferentIdentityConfigIsNotComparable) {
  Json base = MakeReport(64, 1000.0).ToJson();
  Json other_scale = MakeReport(16, 1000.0).ToJson();
  auto result = CompareBenchReports(base, other_scale);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->comparable);
  EXPECT_FALSE(result->ok());
  EXPECT_FALSE(result->notes.empty());
}

TEST(BenchCompareTest, UnmatchedPointsAreNotedNotFailed) {
  Json base = MakeReport(64, 1000.0).ToJson();
  BenchReport extended = MakeReport(64, 1000.0);
  extended.Add("partSize=8", "c_total", 900.0);
  auto result = CompareBenchReports(base, extended.ToJson());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_FALSE(result->notes.empty());
}

TEST(BenchCompareTest, RejectsInvalidDocuments) {
  Json base = MakeReport(64, 1000.0).ToJson();
  Json junk = Json::Object();
  junk.Set("hello", "world");
  EXPECT_FALSE(CompareBenchReports(base, junk).ok());
  EXPECT_FALSE(CompareBenchReports(junk, base).ok());
}

}  // namespace
}  // namespace tempo
