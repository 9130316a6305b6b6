#include "obs/trace.h"

#include "common/assert.h"
#include "obs/telemetry.h"

namespace tempo {

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
    case Phase::kReferenceJoin:
      return "reference join";
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
                        IoAccountant* accountant) {
  const IoStats io_at_begin =
      accountant != nullptr ? accountant->stats() : IoStats{};
  SpanNode* node;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SpanNode* parent = open_.empty() ? root_.get() : open_.back().node;
    node = FindOrCreateChildLocked(parent, phase, label);
    ++node->stats.entered;
    open_.push_back(Frame{node, accountant, io_at_begin,
                          std::chrono::steady_clock::now(), IoStats{}});
  }
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

void Tracer::End(SpanNode* node) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  TEMPO_DCHECK(!open_.empty() && open_.back().node == node);
  const Frame frame = open_.back();
  open_.pop_back();
  const IoStats inclusive = frame.accountant != nullptr
                                ? frame.accountant->stats() - frame.io_at_begin
                                : IoStats{};
  node->stats.wall_seconds +=
      std::chrono::duration<double>(now - frame.start).count();
  node->stats.io = node->stats.io + (inclusive - frame.children_io);
  // A parent counting a different ledger (or none) does not see this I/O.
  if (!open_.empty() && open_.back().accountant == frame.accountant) {
    open_.back().children_io = open_.back().children_io + inclusive;
  }
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

}  // namespace tempo
