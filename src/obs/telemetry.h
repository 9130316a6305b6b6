#ifndef TEMPO_OBS_TELEMETRY_H_
#define TEMPO_OBS_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/statusor.h"
#include "obs/metrics.h"

namespace tempo {

/// Live service telemetry (DESIGN.md §4k): everything PR 2/4 built is
/// post-hoc, per-run observability — this module is what a *running*
/// QueryService exposes continuously:
///
///   - FlightRecorder: an always-on, fixed-size, lock-free ring of recent
///     lifecycle events (query submitted/admitted/finished, admission
///     grants/releases, executor phase entries, fallbacks), dumpable as a
///     valid Perfetto trace on demand, on admission rejection, or from a
///     fatal-signal handler;
///   - MetricsSampler: a background thread appending periodic JSONL
///     snapshots (service gauges + metric scalars) to TEMPO_TELEMETRY_OUT;
///   - RenderPrometheus: the text-exposition renderer over the declared
///     metric/histogram/gauge lists (stable HELP/TYPE lines, declaration
///     order — golden-testable);
///   - TelemetrySink: the shared append-only JSONL writer the sampler and
///     the slow-query log both feed.
///
/// None of it touches charged I/O or output bytes: telemetry reads
/// snapshots, so enabling every piece leaves a query's output pages and
/// IoStats byte-identical to a telemetry-off run at any concurrency.

// ---------------------------------------------------------------------
// Service gauges
// ---------------------------------------------------------------------

/// The single declaration point for every *sampled* service gauge — the
/// point-in-time values the MetricsSampler snapshots each tick and the
/// Prometheus renderer exposes. Scalar run metrics live in
/// TEMPO_METRIC_LIST; gauges differ in that they are instantaneous reads
/// of live service state, not accumulated per-run counters.
///   TEMPO_GAUGE_LIST(G): G(enumerator, "name", "unit", "owner", "doc")
#define TEMPO_GAUGE_LIST(G)                                                   \
  G(PoolPagesTotal, "pool_pages_total", "pages", "SharedBufferPool",          \
    "Capacity of the shared buffer-pool reservation ledger.")                 \
  G(PoolPagesAvailable, "pool_pages_available", "pages", "SharedBufferPool",  \
    "Unreserved pages of the shared pool at the sample instant.")             \
  G(AdmissionQueueDepth, "admission_queue_depth", "count",                    \
    "SharedBufferPool",                                                       \
    "Queries waiting in the FIFO admission queue at the sample instant.")     \
  G(QueriesQueued, "queries_queued", "count", "QueryService",                 \
    "Submitted queries still waiting for their buffer-pool reservation.")     \
  G(QueriesRunning, "queries_running", "count", "QueryService",               \
    "Admitted queries currently executing.")                                  \
  G(SessionsOpened, "sessions_opened", "count", "QueryService",               \
    "Sessions opened over the service's lifetime.")                          \
  G(SlowQueriesLogged, "slow_queries_logged", "count", "QueryService",        \
    "Queries whose wall latency exceeded TEMPO_SLOW_QUERY_MS and were "       \
    "captured into the slow-query log.")                                      \
  G(FlightEventsAppended, "flight_events_appended", "count",                  \
    "FlightRecorder",                                                         \
    "Lifecycle events appended to the flight recorder ring (monotonic; "      \
    "events beyond the ring capacity overwrite the oldest).")

/// Compile-time-checked identifier of a declared gauge.
enum class Gauge : uint16_t {
#define TEMPO_GAUGE_ENUM(id, name, unit, owner, doc) k##id,
  TEMPO_GAUGE_LIST(TEMPO_GAUGE_ENUM)
#undef TEMPO_GAUGE_ENUM
};

/// Number of declared gauges.
inline constexpr size_t kNumGauges = []() constexpr {
  size_t n = 0;
#define TEMPO_GAUGE_COUNT(id, name, unit, owner, doc) ++n;
  TEMPO_GAUGE_LIST(TEMPO_GAUGE_COUNT)
#undef TEMPO_GAUGE_COUNT
  return n;
}();

/// One gauge's declaration.
struct GaugeDef {
  Gauge id;
  const char* name;   ///< stable key (JSONL / Prometheus name)
  const char* unit;
  const char* owner;  ///< subsystem that is sampled
  const char* doc;
};

/// Declaration of `g`.
const GaugeDef& GetGaugeDef(Gauge g);

/// All declared gauges, in declaration order.
const std::vector<GaugeDef>& AllGaugeDefs();

/// Markdown table documenting every declared gauge — the generated source
/// of the DESIGN.md Appendix A gauge section.
std::string DescribeGauges();

/// One point-in-time reading of every declared gauge. A plain value
/// struct: the sampler fills one per tick from live service state.
struct GaugeSnapshot {
  std::array<double, kNumGauges> values{};

  void Set(Gauge g, double v) { values[static_cast<size_t>(g)] = v; }
  double Get(Gauge g) const { return values[static_cast<size_t>(g)]; }

  /// {"pool_pages_total": ..., ...} in declaration order.
  Json ToJson() const;
};

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// Kinds of lifecycle events the flight recorder captures.
enum class FlightEventKind : uint8_t {
  kQuerySubmitted = 0,   ///< Session::Submit accepted the request shape
  kQueryRejected = 1,    ///< Submit failed fast (infeasible reservation)
  kQueryAdmitted = 2,    ///< admission wait ended; execution begins
  kQueryCancelled = 3,   ///< cancelled while queued
  kQueryFinished = 4,    ///< execution ended (either status)
  kAdmissionGranted = 5, ///< pool granted a reservation (arg = pages)
  kAdmissionReleased = 6,///< reservation returned (arg = pages)
  kPhaseEntered = 7,     ///< executor opened a span (detail = Phase)
  kExecutorFallback = 8, ///< planner-chosen path fell back (radix → paged)
  kSlowQuery = 9,        ///< wall latency exceeded TEMPO_SLOW_QUERY_MS
};

/// Stable display name ("query submitted", "admission granted", ...).
const char* FlightEventKindName(FlightEventKind k);

/// A fixed-size lock-free ring buffer of recent lifecycle events. Any
/// thread appends with relaxed atomics (one fetch_add to claim a slot,
/// relaxed field stores, one release store to publish); readers validate
/// each slot's publication sequence before and after reading, so a dump
/// racing an append skips the slot being overwritten instead of reporting
/// a torn event. Appending never blocks, never allocates, and never takes
/// a lock — it is safe from executor hot paths and cheap enough to leave
/// always on.
///
/// The ring overwrites: with capacity C, a dump sees the most recent ≤ C
/// events; `events_appended() - C` older ones (when positive) have been
/// overwritten and are reported as `dropped_events` in the dump.
class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (minimum 16).
  explicit FlightRecorder(size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event. Lock-free; callable from any thread, including
  /// (except for the steady_clock read) a signal handler.
  void Append(FlightEventKind kind, uint64_t query_id, uint64_t arg = 0,
              uint8_t detail = 0);

  /// Events appended over the recorder's lifetime (monotonic).
  uint64_t events_appended() const {
    return next_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return slots_.size(); }

  /// The surviving events as a valid Perfetto / chrome://tracing document:
  /// one "i" (instant) event per ring slot, in append order, with args
  /// carrying the sequence number, query id, event argument, and (for
  /// phase events) the phase name. Top level also reports schema_version
  /// and dropped_events.
  Json DumpJson() const;

  /// Serializes DumpJson() to `path` (pretty-printed).
  Status DumpFile(const std::string& path) const;

  /// Async-signal-safe dump: writes the same Perfetto document shape to
  /// `fd` using only atomic loads, stack buffers and write(2) — no
  /// allocation, no locks, no stdio. Used by the fatal-signal handler.
  void DumpToFdSignalSafe(int fd) const;

  /// Installs a fatal-signal handler (SIGSEGV, SIGABRT, SIGBUS, SIGFPE)
  /// that dumps `recorder` to `path` and then re-raises with the default
  /// disposition. Handlers are installed once per process; the recorder
  /// pointer is swapped atomically, so the most recently installed
  /// recorder wins and `InstallFatalSignalDump(nullptr, "")` disarms the
  /// dump (the handlers stay installed but do nothing).
  static void InstallFatalSignalDump(FlightRecorder* recorder,
                                     const std::string& path);

 private:
  struct Slot {
    /// 0 = never written; otherwise 1 + the sequence number of the event
    /// stored here. Written last (release) so readers can validate.
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> ts_us{0};
    std::atomic<uint64_t> query_id{0};
    std::atomic<uint64_t> arg{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<uint8_t> detail{0};
  };

  int64_t NowUs() const;

  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> next_{0};
  std::chrono::steady_clock::time_point birth_;
};

// ---------------------------------------------------------------------
// JSONL sink + sampler
// ---------------------------------------------------------------------

/// The shared append-only JSONL writer behind TEMPO_TELEMETRY_OUT: one
/// line per record, compact serialization, flushed per append so a reader
/// tailing the file (or a crashed process's last lines) sees whole
/// records. The sampler appends {"type":"sample",...} records and the
/// slow-query log appends {"type":"slow_query",...} records to the same
/// stream.
class TelemetrySink {
 public:
  /// Opens `path` for appending.
  static StatusOr<std::unique_ptr<TelemetrySink>> Open(
      const std::string& path);

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// Appends one record as a single compact line. Thread-safe.
  Status Append(const Json& record);

  const std::string& path() const { return path_; }
  uint64_t records_written() const {
    return records_.load(std::memory_order_relaxed);
  }

 private:
  explicit TelemetrySink(std::string path) : path_(std::move(path)) {}

  std::string path_;
  std::mutex mu_;
  std::ofstream out_;
  std::atomic<uint64_t> records_{0};
};

/// A background thread that snapshots live service state on a fixed
/// period and appends each snapshot as one JSONL record. The sample
/// callback runs on the sampler thread and must be safe to call
/// concurrently with execution (QueryService's callback only reads
/// mutex-guarded or atomic state). Stop() (and the destructor) takes one
/// final sample so short runs always produce at least one record.
class MetricsSampler {
 public:
  /// One sample: a JSON object; the sampler adds "type", "seq" and
  /// "ts_us" before appending.
  using SampleFn = std::function<Json()>;

  MetricsSampler(uint64_t period_ms, TelemetrySink* sink, SampleFn fn);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Stops the thread after one final sample. Idempotent.
  void Stop();

  /// Takes one sample synchronously on the calling thread.
  void SampleNow();

  /// Samples appended so far.
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  uint64_t period_ms() const { return period_ms_; }

 private:
  void Loop();

  const uint64_t period_ms_;
  TelemetrySink* sink_;
  SampleFn fn_;
  std::chrono::steady_clock::time_point birth_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<uint64_t> ticks_{0};
  std::thread thread_;
};

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

/// Renders a metrics snapshot (set scalars + non-empty histograms, both
/// in declaration order) and an optional gauge snapshot (all gauges, in
/// declaration order) in the Prometheus text exposition format:
///
///   # HELP tempo_<name> <doc>
///   # TYPE tempo_<name> gauge|counter|histogram
///   tempo_<name> <value>
///
/// Scalar metrics and gauges expose as gauges (single instantaneous
/// values); histograms expose cumulative le-buckets plus _sum and _count,
/// with the overflow bucket as le="+Inf". The ordering, HELP and TYPE
/// lines are deterministic functions of the x-macro declarations, which
/// is what the golden exposition test locks in.
std::string RenderPrometheus(const MetricsRegistry& metrics,
                             const GaugeSnapshot* gauges = nullptr);

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// The telemetry knobs of a QueryService, resolvable from the
/// environment. All numeric knobs go through the strict env parser
/// (common/env.h): trailing garbage, overflow and non-numeric values are
/// InvalidArgument naming the variable, never silently half-parsed.
struct TelemetryConfig {
  /// JSONL time-series path (TEMPO_TELEMETRY_OUT). Empty = no sampler,
  /// no JSONL slow-query records.
  std::string jsonl_path;

  /// Sampler period in milliseconds (TEMPO_TELEMETRY_PERIOD_MS).
  uint64_t sampler_period_ms = 100;

  /// When true, queries whose wall latency reaches `slow_query_ms` are
  /// captured (EXPLAIN ANALYZE tree + metric snapshot + request config).
  /// Set by the presence of TEMPO_SLOW_QUERY_MS; 0 logs every query.
  bool slow_query_log = false;
  uint64_t slow_query_ms = 0;

  /// Where the flight recorder dumps (TEMPO_FLIGHT_OUT): written on
  /// service shutdown, on a kResourceExhausted admission rejection, and
  /// from the fatal-signal handler. Empty = no dump file (the in-memory
  /// ring still records).
  std::string flight_path;

  /// Ring capacity in events (TEMPO_FLIGHT_EVENTS), rounded up to a
  /// power of two.
  uint64_t flight_events = 4096;

  /// True when any output is configured.
  bool enabled() const {
    return !jsonl_path.empty() || slow_query_log || !flight_path.empty();
  }

  /// Resolves TEMPO_TELEMETRY_OUT / TEMPO_TELEMETRY_PERIOD_MS /
  /// TEMPO_SLOW_QUERY_MS / TEMPO_FLIGHT_OUT / TEMPO_FLIGHT_EVENTS.
  static StatusOr<TelemetryConfig> FromEnv();
};

}  // namespace tempo

#endif  // TEMPO_OBS_TELEMETRY_H_
