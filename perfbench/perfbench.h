// Shared declarations of the tempo end-to-end benchmark (see README.md).
//
// The benchmark drives the library only through its public entry points:
// JoinRequest/RunJoin for the serial workloads, QueryService/Session::Submit
// for the concurrent one, and — in the traced run — the layer functions the
// partition pipeline is built from (DeterminePartIntervals, GracePartition,
// JoinPartitions, ExternalSortByVs, PlanVtJoin, ColumnExtractor, ...).

#ifndef TEMPO_PERFBENCH_PERFBENCH_H_
#define TEMPO_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "obs/trace.h"
#include "service/join_request.h"
#include "storage/disk.h"
#include "storage/stored_relation.h"

namespace tempo::perfbench {

/// One kind of query a workload issues.
struct QueryClass {
  const char* label;
  JoinExecutor executor;
  JoinKind kind;
};

/// A workload: how its inputs are generated and how it is driven. Inputs
/// are two relations of `tuples` 128-byte tuples each over the paper's
/// 1,000,000-chronon lifespan; r is {key, pad} and s is {key, spad}, so the
/// natural join is on `key` alone and outer joins NULL-pad `spad`.
struct Workload {
  std::string name;
  uint64_t tuples = 0;
  uint64_t distinct_keys = 0;
  uint64_t long_lived = 0;
  /// Per-query buffer (the paper's buffSize) in pages.
  uint32_t buffer_pages = 0;
  /// Cyclic query mix. Query i is of class mix[i % mix.size()].
  std::vector<QueryClass> mix;
  /// 0: one closed-loop client calling RunJoin serially. Otherwise the
  /// number of closed-loop sessions of a QueryService.
  int sessions = 0;
  uint32_t pool_pages = 0;
  uint32_t workers = 1;
  /// Service workloads run in rounds of this many queries, each round on
  /// freshly generated inputs and a fresh service (see README.md).
  int round_queries = 0;
};

const Workload* FindWorkload(const std::string& name);

/// Every timed loop runs at least this many queries, so the 90th
/// percentile has ten samples beyond it.
inline constexpr int kMinQueries = 100;

/// Sampling seed of every query (the input data come from --seed).
inline constexpr uint64_t kQuerySeed = 42;

/// The generated inputs of one workload, on their own Disk.
struct Inputs {
  std::unique_ptr<Disk> disk;
  std::unique_ptr<StoredRelation> r;
  std::unique_ptr<StoredRelation> s;
  uint64_t input_pages = 0;
};

/// Generates the workload's inputs from `seed`; `divisor` > 1 makes the
/// reduced copy the reference oracle checks (cardinalities / divisor).
StatusOr<Inputs> MakeInputs(const Workload& w, uint64_t seed,
                            uint64_t divisor = 1);

/// The request of one query of class `qc` over `in`.
JoinRequest MakeRequest(const QueryClass& qc, const Inputs& in,
                        uint32_t buffer_pages);

/// Order-independent digest of a relation's records: the row count and the
/// wrapping sum of a 64-bit hash of every record's bytes. Two relations
/// holding the same multiset of records have equal digests.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// Digest of `rel`, and of only its rows whose `null_attr` is not NULL (the
/// matched part of a left-outer result).
StatusOr<Digest> DigestOf(StoredRelation* rel);
StatusOr<Digest> DigestOfMatched(StoredRelation* rel, size_t null_attr);

/// Expected output digest of each class of a workload, by mix index.
using Expected = std::vector<Digest>;

/// Computes the expected digests in an untimed pass: inner classes against
/// two executors that share no probe loop (partition and sweep, which must
/// agree); the left-outer class from its own run, whose matched rows must
/// equal the inner result; and every class against the reference oracle on
/// a 1/16-size copy. Every check is counted in `*checks` / `*check_failures`.
StatusOr<Expected> ComputeExpected(const Workload& w, uint64_t seed,
                                   Inputs* in, uint64_t* checks,
                                   uint64_t* check_failures);

/// Result of running one query directly through RunJoin.
struct DirectRun {
  Status status;
  JoinRunStats stats;
  Digest digest;
  double start_s = 0.0;  // NowSeconds() when RunJoin was called
  double seconds = 0.0;
  double verify_seconds = 0.0;
};

/// Runs `req` into a fresh uncharged output relation with a fresh
/// per-query accountant (so charged I/O equals a standalone run), digests
/// the output and deletes it. `ctx` may be null (untraced).
DirectRun RunDirect(const JoinRequest& req, Inputs* in, ExecContext* ctx);

/// Clocks.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double ProcessCpuSeconds();
double PeakRssMiB();

/// Nearest-rank percentile of `v` (q in (0, 1]); 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
/// max(a/b, b/a); 0 when either side is not positive.
double QError(double estimate, double actual);

/// One recorded span. Spans of the benchmark's own calls have measured
/// start/end; spans imported from an ExecContext's tree carry the tree's
/// summed wall time and are laid out back to back under their parent.
struct SpanRecord {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  uint64_t query_id = 0;
  bool imported = false;
};

/// In-memory span log of the traced run, written out at exit. Thread-safe.
class SpanLog {
 public:
  /// Opens a span under `parent` (-1: a root) and returns its index.
  int Begin(const std::string& name, const std::string& layer, int parent,
            uint64_t query_id);
  void End(int id);
  /// Appends a closed span with a known start and duration.
  int Add(const std::string& name, const std::string& layer, int parent,
          uint64_t query_id, double start_us, double dur_us);
  /// Imports the span tree of an ExecContext under span `parent`.
  void Import(const SpanNode& root, int parent, uint64_t query_id);

  /// Self time (duration minus children's durations) summed per layer over
  /// the subtrees rooted at `roots`, in milliseconds.
  std::map<std::string, double> SelfMsByLayer(const std::vector<int>& roots);
  double DurationMs(int id);
  /// A NowSeconds() reading on this log's microsecond time axis.
  double ToUs(double seconds) const;

  Status WriteJson(const std::string& path);

 private:
  void ImportChildren(const SpanNode& node, int parent, uint64_t query_id,
                      double start_us);

  std::mutex mu_;
  std::vector<SpanRecord> spans_;
  const double origin_ = NowSeconds();
};

/// RAII span over a SpanLog (inert when the log is null).
class Span {
 public:
  Span(SpanLog* log, const std::string& name, const std::string& layer,
       int parent = -1, uint64_t query_id = 0)
      : log_(log),
        id_(log == nullptr ? -1 : log->Begin(name, layer, parent, query_id)) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void End() {
    if (log_ != nullptr && id_ >= 0) log_->End(id_);
    log_ = nullptr;
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// The library phase -> benchmark layer map used for self-time shares.
const char* LayerOfPhase(Phase p);

/// Named metric values with units, printed in insertion order.
class MetricSet {
 public:
  void Put(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Outcome of one benchmark process.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
};

/// The timed (untraced) measurement: every end-to-end metric.
Status RunEndToEnd(const Workload& w, uint64_t seed, double seconds,
                   RunResult* out);

/// The traced run: every per-layer metric. Spans go to `trace_path` when
/// it is non-empty.
Status RunTraced(const Workload& w, uint64_t seed, double seconds,
                 const std::string& trace_path, RunResult* out);

/// A stretch of an untraced timed loop with a fixed query count: the queries
/// between two set-ups of a serial loop, or one round of a service loop.
struct Window {
  uint64_t completed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double latency_ms = 0.0;  // mean latency of its queries
};

/// Timed-loop results shared by the end-to-end and traced runs.
struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<double> wait_ms;   // service workloads only
  std::vector<double> setup_s;   // set-ups timed during the loop
  std::vector<Window> windows;   // full windows of an untraced loop
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  IoStats io;                    // summed over completed queries
  double charged_cost = 0.0;     // summed over completed queries
  uint64_t completed = 0;
  double queue_peak = 0.0;
  std::vector<double> retained_pages;  // one per service round
  double morsels = 0.0;
  double parallel_efficiency = 0.0;
};

/// Every loop first runs its queries unbooked for this long: the first
/// seconds of a process run up to a third slower than the rest.
inline constexpr double kWarmupSeconds = 3.0;

/// Loop control: after `warmup_seconds` of unbooked queries, run until
/// `seconds` of loop time and `min_queries` queries are done. `traced`
/// alternates, per query (serial) or per round (service), between an
/// untraced and a traced sample, filling the second latency vector; `log`
/// receives the traced samples' spans.
struct LoopOptions {
  double warmup_seconds = kWarmupSeconds;
  double seconds = 10.0;
  int min_queries = kMinQueries;
  bool traced = false;
  SpanLog* log = nullptr;
  /// Corrupts every expected digest (the self-test).
  bool corrupt_expected = false;
};

struct LoopOutput {
  LoopResult untraced;
  LoopResult traced;
};

/// Runs the timed loop of a workload: a serial one over `in`, a service one
/// in rounds that each generate their inputs from `seed` and create a fresh
/// service. Set-up (generation, plus service creation) is timed during the
/// loop, spread over it, and excluded from the loop's wall and CPU time.
Status RunLoop(const Workload& w, uint64_t seed, const Expected& expected,
               Inputs* in, const LoopOptions& options, LoopOutput* out);

}  // namespace tempo::perfbench

#endif  // TEMPO_PERFBENCH_PERFBENCH_H_
