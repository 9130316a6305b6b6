#ifndef TEMPO_OBS_TRACE_H_
#define TEMPO_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "parallel/parallel_for.h"
#include "storage/buffer_manager.h"
#include "storage/io_accountant.h"

namespace tempo {

class FlightRecorder;
class IoAccountant;

/// Execution phases an executor may open a span for. One enumerator per
/// phase the paper's algorithms distinguish, so EXPLAIN ANALYZE output maps
/// directly onto the paper's cost formulas (sampling, chooseIntervals,
/// partitioning, joinPartitions, ...).
enum class Phase : uint8_t {
  kExecute,          ///< the tracer root: one whole query
  kPlan,             ///< planner cost comparison
  kNestedLoop,       ///< block nested-loops executor root
  kSortMerge,        ///< sort-merge executor root
  kSortR,            ///< external sort of r by Vs
  kSortS,            ///< external sort of s by Vs
  kMergeSweep,       ///< the co-sweep over the two sorted files
  kIndexed,          ///< indexed executor root
  kIndexBuild,       ///< append-only tree build over the inner
  kIndexProbe,       ///< outer scan + index probes
  kPartitionJoin,    ///< partition executor root
  kChooseIntervals,  ///< optimizer sweep over candidate partitionings
  kSampling,         ///< interval sampling I/O (nested under chooseIntervals)
  kPartitionR,       ///< Grace partitioning of r
  kPartitionS,       ///< Grace partitioning of s
  kJoinPartitions,   ///< backwards partition-pair join with tuple cache
  kCoalesce,         ///< partition-based coalescing
  kViewBuild,        ///< materialized view initial build
  kViewInsert,       ///< incremental view maintenance, insertion
  kViewDelete,       ///< incremental view maintenance, deletion
  kRadixJoin,        ///< in-memory columnar radix executor root
  kRadixExtract,     ///< page scan + column extraction of both inputs
  kRadixPartition,   ///< grouping of s's rows by key-hash slot
  kRadixProbe,       ///< ordered r-row probe plus inline emission
  kQuery,            ///< sequenced query root (src/query executor)
  kQuerySelect,      ///< sequenced selection over a materialized input
  kQueryProject,     ///< sequenced projection (change-preserving)
  kQueryDifference,  ///< sequenced union-compatible set difference
  kQueryJoin,        ///< sequenced join node (wraps RunJoin)
  kOuterPass,        ///< swapped anti pass of the full-outer partition join
  kSweepJoin,        ///< endpoint-sweep executor root
  kSweepPass,        ///< the single forward sweep over both sorted inputs
};

/// Stable lowercase display name ("partitioning r", "joinPartitions", ...).
const char* PhaseName(Phase p);

/// What one span measured. I/O and buffer traffic are *exclusive* — a
/// nested span's traffic is not repeated in its parent (the renderer sums
/// subtrees for inclusive columns).
struct SpanStats {
  /// Number of spans merged into this node (siblings with the same phase
  /// and label aggregate, e.g. one sampling node across all draws).
  uint64_t entered = 0;
  /// Summed wall-clock of the merged spans. Concurrent sibling spans (the
  /// r and s partitioning threads) therefore sum, not overlap.
  double wall_seconds = 0.0;
  /// Charged I/O issued by the span's own thread while it was innermost.
  IoStats io;
  /// Buffer-pool hit/miss delta over the span's duration, across the
  /// pools registered with the ExecContext. Duration-based, so unlike
  /// `io` it is inclusive of nested spans.
  BufferCounters buffers;
  /// Morsel dispatch counts and per-worker busy time attributed to this
  /// span via TraceSpan::AddMorsels.
  MorselStats morsels;
};

/// One node of the span tree. Nodes are created by Tracer::Begin and are
/// stable for the tracer's lifetime; re-entering the same (phase, label)
/// under the same parent merges into the existing node.
struct SpanNode {
  Phase phase;
  std::string label;  ///< optional qualifier, e.g. "partition 3"
  SpanStats stats;
  /// Planner-estimated cost for this phase; < 0 when no estimate exists.
  double estimated_cost = -1.0;
  std::vector<std::unique_ptr<SpanNode>> children;

  /// Exclusive I/O of this node plus all descendants.
  IoStats InclusiveIo() const;
  /// Morsel stats of this node plus all descendants.
  MorselStats InclusiveMorsels() const;
  /// Depth-first search for the first node (including this one) with the
  /// given phase; null when absent.
  const SpanNode* FindPhase(Phase p) const;

  double ActualCost(const CostModel& model) const {
    return InclusiveIo().Cost(model);
  }
};

/// Owns the span tree. Thread-safe: spans may begin and end on any
/// thread. Parent resolution uses a per-thread span stack, so a span's
/// parent is the innermost open span *on the same thread*; cross-thread
/// spans pass their parent explicitly (ExecContext::SpanUnder).
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span: resolves the parent (explicit > innermost-on-thread >
  /// root), finds or creates the (phase, label) child, pushes it on the
  /// calling thread's stack, and returns the node.
  SpanNode* Begin(Phase phase, std::string label,
                  SpanNode* explicit_parent = nullptr);

  /// Closes the innermost span on the calling thread (must be `node`) and
  /// folds the measured deltas into it.
  void End(SpanNode* node, double wall_seconds, const IoStats& io,
           const BufferCounters& buffers);

  /// Adds morsel stats to `node` (thread-safe).
  void AddMorsels(SpanNode* node, const MorselStats& morsels);

  /// Sets the planner estimate on `node` (thread-safe).
  void SetEstimate(SpanNode* node, double cost);

  /// Records a planner estimate for the first span of `phase`: applied to
  /// an existing node if one exists, otherwise remembered and attached
  /// when that phase first begins. Lets the planner annotate phases that
  /// have not started yet (est_sample_cost before sampling runs).
  void AnnotateEstimate(Phase phase, double cost);

  /// The synthetic root. Its children are the executor root spans.
  const SpanNode& root() const { return *root_; }

  /// Sum of exclusive I/O over the whole tree == all charged I/O recorded
  /// while any span was open.
  IoStats TotalIo() const;

  /// Wires every Begin to a service flight recorder: each opened span
  /// appends a kPhaseEntered event tagged with `query_id`. Set before
  /// execution starts (the query service sets it on each per-query
  /// context); null detaches. Also arms live_phase() below.
  void SetFlightRecorder(FlightRecorder* recorder, uint64_t query_id);

  /// Most recently entered phase, as a Phase value, or kNoLivePhase when
  /// no span has begun. A relaxed-atomic read, safe concurrently with
  /// execution — this is the "phase" field of QueryHandle::Progress().
  static constexpr uint8_t kNoLivePhase = 0xff;
  uint8_t live_phase() const {
    return live_phase_.load(std::memory_order_relaxed);
  }

 private:
  SpanNode* FindOrCreateChildLocked(SpanNode* parent, Phase phase,
                                    const std::string& label);
  SpanNode* FindPhaseLocked(SpanNode* node, Phase phase);

  mutable std::mutex mu_;
  std::unique_ptr<SpanNode> root_;
  std::unordered_map<uint8_t, double> pending_estimates_;

  /// Flight hook: set once before execution, read by Begin on any thread.
  std::atomic<FlightRecorder*> flight_{nullptr};
  uint64_t flight_query_ = 0;  // written before the recorder is attached
  std::atomic<uint8_t> live_phase_{kNoLivePhase};
};

/// RAII handle for one span. Move-only; inert when default-constructed or
/// created through a null ExecContext, so executors write
///   TraceSpan span = SpanIf(ctx, Phase::kSampling);
/// unconditionally and pay nothing when tracing is off.
///
/// While open, the span registers an I/O collector for the calling thread
/// on the bound accountant: charged accesses this thread issues are
/// attributed to this span (and not to any enclosing span — exclusive
/// attribution). End() (or destruction) stops the clock, pops the
/// collector, and folds everything into the tracer's node.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(Tracer* tracer, SpanNode* node, IoAccountant* accountant,
            BufferCounters buffers_at_begin);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan& operator=(TraceSpan&& other) noexcept;

  ~TraceSpan() { End(); }

  bool active() const { return tracer_ != nullptr; }

  /// The node this span writes to; null when inert. Used to parent
  /// cross-thread child spans explicitly.
  SpanNode* node() const { return node_; }

  /// Attributes morsel stats (dispatch counts, per-worker busy time) from
  /// a parallel region to this span. No-op when inert.
  void AddMorsels(const MorselStats& morsels);

  /// Sets the planner-estimated cost on this span's node. No-op when inert.
  void SetEstimate(double cost);

  /// Closes the span early (idempotent).
  void End();

  /// Buffer-pool totals at span begin; consumed by End(). Exposed for
  /// ExecContext, which snapshots the registered pools.
  void set_buffers_at_end_fn(std::function<BufferCounters()> fn) {
    buffers_at_end_fn_ = std::move(fn);
  }

 private:
  Tracer* tracer_ = nullptr;
  SpanNode* node_ = nullptr;
  IoAccountant* accountant_ = nullptr;
  IoStats io_sink_;
  BufferCounters buffers_at_begin_;
  std::function<BufferCounters()> buffers_at_end_fn_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace tempo

#endif  // TEMPO_OBS_TRACE_H_
