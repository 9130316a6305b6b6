#include "obs/trace.h"

#include <utility>

#include "obs/telemetry.h"

namespace tempo {

namespace {

/// Per-thread stack of open spans, keyed by tracer so independent tracers
/// (nested tests) never see each other's spans.
thread_local std::vector<std::pair<const Tracer*, SpanNode*>> t_span_stack;

SpanNode* InnermostOnThread(const Tracer* tracer) {
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it) {
    if (it->first == tracer) return it->second;
  }
  return nullptr;
}

}  // namespace

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kExecute:
      return "execute";
    case Phase::kPlan:
      return "plan";
    case Phase::kNestedLoop:
      return "nested-loop join";
    case Phase::kSortMerge:
      return "sort-merge join";
    case Phase::kSortR:
      return "sort r";
    case Phase::kSortS:
      return "sort s";
    case Phase::kMergeSweep:
      return "merge sweep";
    case Phase::kIndexed:
      return "indexed join";
    case Phase::kIndexBuild:
      return "index build";
    case Phase::kIndexProbe:
      return "index probe";
    case Phase::kPartitionJoin:
      return "partition join";
    case Phase::kChooseIntervals:
      return "chooseIntervals";
    case Phase::kSampling:
      return "sampling";
    case Phase::kPartitionR:
      return "partitioning r";
    case Phase::kPartitionS:
      return "partitioning s";
    case Phase::kJoinPartitions:
      return "joinPartitions";
    case Phase::kCoalesce:
      return "coalesce";
    case Phase::kViewBuild:
      return "view build";
    case Phase::kViewInsert:
      return "view insert";
    case Phase::kViewDelete:
      return "view delete";
    case Phase::kRadixJoin:
      return "radix join";
    case Phase::kRadixExtract:
      return "radix_extract";
    case Phase::kRadixPartition:
      return "radix_partition";
    case Phase::kRadixProbe:
      return "radix_probe";
    case Phase::kQuery:
      return "sequenced query";
    case Phase::kQuerySelect:
      return "select";
    case Phase::kQueryProject:
      return "project";
    case Phase::kQueryDifference:
      return "difference";
    case Phase::kQueryJoin:
      return "join";
    case Phase::kOuterPass:
      return "outer pass (swapped)";
    case Phase::kSweepJoin:
      return "sweep join";
    case Phase::kSweepPass:
      return "sweep pass";
  }
  return "?";
}

IoStats SpanNode::InclusiveIo() const {
  IoStats total = stats.io;
  for (const auto& child : children) total = total + child->InclusiveIo();
  return total;
}

const SpanNode* SpanNode::FindPhase(Phase p) const {
  if (phase == p) return this;
  for (const auto& child : children) {
    if (const SpanNode* found = child->FindPhase(p)) return found;
  }
  return nullptr;
}

Tracer::Tracer() : root_(std::make_unique<SpanNode>()) {
  root_->phase = Phase::kExecute;
  root_->label = "<root>";
}

Tracer::~Tracer() = default;

SpanNode* Tracer::FindOrCreateChildLocked(SpanNode* parent, Phase phase,
                                          const std::string& label) {
  for (const auto& child : parent->children) {
    if (child->phase == phase && child->label == label) return child.get();
  }
  auto node = std::make_unique<SpanNode>();
  node->phase = phase;
  node->label = label;
  auto pending = pending_estimates_.find(static_cast<uint8_t>(phase));
  if (pending != pending_estimates_.end()) {
    node->estimated_cost = pending->second;
    pending_estimates_.erase(pending);
  }
  SpanNode* raw = node.get();
  parent->children.push_back(std::move(node));
  return raw;
}

SpanNode* Tracer::FindPhaseLocked(SpanNode* node, Phase phase) {
  if (node->phase == phase && node != root_.get()) return node;
  for (const auto& child : node->children) {
    if (SpanNode* found = FindPhaseLocked(child.get(), phase)) return found;
  }
  return nullptr;
}

SpanNode* Tracer::Begin(Phase phase, std::string label,
                        SpanNode* explicit_parent) {
  SpanNode* node;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SpanNode* parent = explicit_parent;
    if (parent == nullptr) parent = InnermostOnThread(this);
    if (parent == nullptr) parent = root_.get();
    node = FindOrCreateChildLocked(parent, phase, label);
    ++node->stats.entered;
  }
  t_span_stack.emplace_back(this, node);
  live_phase_.store(static_cast<uint8_t>(phase), std::memory_order_relaxed);
  if (FlightRecorder* flight = flight_.load(std::memory_order_acquire)) {
    flight->Append(FlightEventKind::kPhaseEntered, flight_query_, 0,
                   static_cast<uint8_t>(phase));
  }
  return node;
}

void Tracer::SetFlightRecorder(FlightRecorder* recorder, uint64_t query_id) {
  flight_query_ = query_id;
  flight_.store(recorder, std::memory_order_release);
}

void Tracer::End(SpanNode* node, double wall_seconds, const IoStats& io,
                 const BufferCounters& buffers) {
  // Pop this tracer's innermost entry; spans are scoped objects, so the
  // calling thread closes them in LIFO order.
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it) {
    if (it->first == this) {
      t_span_stack.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  node->stats.wall_seconds += wall_seconds;
  node->stats.io = node->stats.io + io;
  node->stats.buffers = node->stats.buffers + buffers;
}

void Tracer::SetEstimate(SpanNode* node, double cost) {
  std::lock_guard<std::mutex> lock(mu_);
  node->estimated_cost = cost;
}

void Tracer::AnnotateEstimate(Phase phase, double cost) {
  std::lock_guard<std::mutex> lock(mu_);
  if (SpanNode* node = FindPhaseLocked(root_.get(), phase)) {
    node->estimated_cost = cost;
    return;
  }
  pending_estimates_[static_cast<uint8_t>(phase)] = cost;
}

IoStats Tracer::TotalIo() const {
  std::lock_guard<std::mutex> lock(mu_);
  return root_->InclusiveIo();
}

TraceSpan::TraceSpan(Tracer* tracer, SpanNode* node, IoAccountant* accountant,
                     BufferCounters buffers_at_begin)
    : tracer_(tracer),
      node_(node),
      accountant_(accountant),
      buffers_at_begin_(buffers_at_begin),
      start_(std::chrono::steady_clock::now()) {
  if (accountant_ != nullptr) accountant_->PushThreadCollector(&io_sink_);
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : tracer_(other.tracer_),
      node_(other.node_),
      accountant_(other.accountant_),
      io_sink_(other.io_sink_),
      buffers_at_begin_(other.buffers_at_begin_),
      buffers_at_end_fn_(std::move(other.buffers_at_end_fn_)),
      start_(other.start_) {
  // The collector stack holds a pointer to the sink; repoint it at the
  // new home. Moves happen on the owning thread (returning SpanIf), so
  // the stack entry being repointed belongs to this thread.
  if (accountant_ != nullptr) {
    accountant_->PopThreadCollector(&other.io_sink_);
    accountant_->PushThreadCollector(&io_sink_);
  }
  other.tracer_ = nullptr;
  other.node_ = nullptr;
  other.accountant_ = nullptr;
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    node_ = other.node_;
    accountant_ = other.accountant_;
    io_sink_ = other.io_sink_;
    buffers_at_begin_ = other.buffers_at_begin_;
    buffers_at_end_fn_ = std::move(other.buffers_at_end_fn_);
    start_ = other.start_;
    if (accountant_ != nullptr) {
      accountant_->PopThreadCollector(&other.io_sink_);
      accountant_->PushThreadCollector(&io_sink_);
    }
    other.tracer_ = nullptr;
    other.node_ = nullptr;
    other.accountant_ = nullptr;
  }
  return *this;
}

void TraceSpan::SetEstimate(double cost) {
  if (tracer_ != nullptr) tracer_->SetEstimate(node_, cost);
}

void TraceSpan::End() {
  if (tracer_ == nullptr) return;
  if (accountant_ != nullptr) accountant_->PopThreadCollector(&io_sink_);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  BufferCounters delta;
  if (buffers_at_end_fn_) {
    delta = buffers_at_end_fn_() - buffers_at_begin_;
  }
  tracer_->End(node_, wall, io_sink_, delta);
  tracer_ = nullptr;
  node_ = nullptr;
  accountant_ = nullptr;
  io_sink_ = IoStats{};
  buffers_at_end_fn_ = nullptr;
}

}  // namespace tempo
