#ifndef TEMPO_OBS_TRACE_H_
#define TEMPO_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
  kReferenceJoin,    ///< reference-oracle executor root
};

/// Stable lowercase display name ("partitioning r", "joinPartitions", ...).
const char* PhaseName(Phase p);

/// What one span measured. I/O is *exclusive* — a nested span's I/O is
/// not repeated in its parent (the renderer sums subtrees for inclusive
/// columns).
struct SpanStats {
  /// Number of spans merged into this node (siblings with the same phase
  /// and label aggregate, e.g. one sampling node across all draws).
  uint64_t entered = 0;
  /// Summed wall-clock of the merged spans.
  double wall_seconds = 0.0;
  /// Charged I/O of the span's accountant while the span was open, less
  /// the I/O of its nested spans.
  IoStats io;
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
  /// Depth-first search for the first node (including this one) with the
  /// given phase; null when absent.
  const SpanNode* FindPhase(Phase p) const;

  double ActualCost(const CostModel& model) const {
    return InclusiveIo().Cost(model);
  }
};

/// Owns the span tree and the stack of open spans. A query opens and
/// closes its spans on the one thread that runs it, so the innermost open
/// span is the parent of the next one. The tree and the estimates are
/// guarded by a mutex, so other threads may read
/// them (QueryHandle::Progress, DumpStats) while the query runs.
///
/// A span's I/O is a delta of the accountant it opened against: on close,
/// the accountant's counters minus their value at begin is the span's
/// inclusive I/O; less the inclusive I/O of its closed children it is the
/// span's exclusive I/O, and the inclusive figure is handed up to the
/// parent.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span under the innermost open span (or the root): finds or
  /// creates the (phase, label) child, pushes its frame, and returns the
  /// node. `accountant` is the ledger whose delta the span reports; with
  /// none, the span reports zero I/O.
  SpanNode* Begin(Phase phase, std::string label, IoAccountant* accountant);

  /// Closes the innermost open span, which must be `node`, and folds its
  /// wall-clock and I/O deltas into the node.
  void End(SpanNode* node);

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
  /// One open span: its node and the counters at its begin.
  struct Frame {
    SpanNode* node;
    IoAccountant* accountant;  ///< null: the span reports zero I/O
    IoStats io_at_begin;
    std::chrono::steady_clock::time_point start;
    /// Inclusive I/O of the closed children charged to `accountant`.
    IoStats children_io;
  };

  SpanNode* FindOrCreateChildLocked(SpanNode* parent, Phase phase,
                                    const std::string& label);
  SpanNode* FindPhaseLocked(SpanNode* node, Phase phase);

  mutable std::mutex mu_;
  std::unique_ptr<SpanNode> root_;
  std::unordered_map<uint8_t, double> pending_estimates_;
  std::vector<Frame> open_;

  /// Flight hook: set once before execution, read by Begin.
  std::atomic<FlightRecorder*> flight_{nullptr};
  uint64_t flight_query_ = 0;  // written before the recorder is attached
  std::atomic<uint8_t> live_phase_{kNoLivePhase};
};

/// RAII handle for one open span. Move-only; inert when default-constructed
/// or created through a null ExecContext, so executors write
///   TraceSpan span = SpanIf(ctx, Phase::kSampling);
/// unconditionally and pay nothing when tracing is off. End() (or
/// destruction) closes the span; spans close in the reverse of the order
/// they opened, which scoped handles guarantee.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(Tracer* tracer, SpanNode* node) : tracer_(tracer), node_(node) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& other) noexcept
      : tracer_(std::exchange(other.tracer_, nullptr)),
        node_(std::exchange(other.node_, nullptr)) {}
  /// Assigning over an open span would close it after the span replacing
  /// it had opened, out of stack order.
  TraceSpan& operator=(TraceSpan&&) = delete;

  ~TraceSpan() { End(); }

  /// Sets the planner-estimated cost on this span's node. No-op when inert.
  void SetEstimate(double cost) {
    if (tracer_ != nullptr) tracer_->SetEstimate(node_, cost);
  }

  /// Closes the span early (idempotent).
  void End() {
    if (tracer_ == nullptr) return;
    tracer_->End(node_);
    tracer_ = nullptr;
    node_ = nullptr;
  }

 private:
  Tracer* tracer_ = nullptr;
  SpanNode* node_ = nullptr;
};

}  // namespace tempo

#endif  // TEMPO_OBS_TRACE_H_
