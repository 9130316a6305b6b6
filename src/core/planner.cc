#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/radix_join.h"
#include "join/nested_loop_join.h"

namespace tempo {

const char* JoinAlgorithmName(JoinAlgorithm a) {
  switch (a) {
    case JoinAlgorithm::kNestedLoop:
      return "nested-loops";
    case JoinAlgorithm::kSortMerge:
      return "sort-merge";
    case JoinAlgorithm::kPartition:
      return "partition";
    case JoinAlgorithm::kInMemoryRadix:
      return "in-memory-radix";
    case JoinAlgorithm::kSweep:
      return "sweep";
  }
  return "?";
}

double EstimateNestedLoopCost(uint32_t pages_r, uint32_t pages_s,
                              uint32_t buffer_pages, const CostModel& model) {
  return NestedLoopAnalyticCost(pages_r, pages_s, buffer_pages, model);
}

namespace {

/// Sort cost for one relation: whole-relation read+write when it fits,
/// else run formation plus ceil(log_fanin(runs)) merge passes, each a
/// read+write of every page. Random seeks: one per run/refill chunk —
/// approximated as one random per buffer-full on each pass.
double EstimateSortCost(uint32_t pages, uint32_t buffer_pages,
                        const CostModel& model) {
  if (pages == 0) return 0.0;
  auto pass_cost = [&](double chunks) {
    // One pass = read all pages + write all pages, with `chunks` seeks on
    // each side.
    return 2.0 * (chunks * model.random_weight +
                  (static_cast<double>(pages) - chunks) *
                      model.sequential_weight);
  };
  double chunks = std::ceil(static_cast<double>(pages) / buffer_pages);
  if (pages <= buffer_pages) {
    return pass_cost(1.0);  // read, sort in memory, write
  }
  double cost = pass_cost(chunks);  // run formation
  double runs = chunks;
  double fanin = std::max<double>(2.0, buffer_pages - 1);
  while (runs > 1.0) {
    cost += pass_cost(std::max(1.0, runs));
    runs = std::ceil(runs / fanin);
    if (runs <= 1.0) break;
  }
  return cost;
}

}  // namespace

double EstimateSortMergeCost(uint32_t pages_r, uint32_t pages_s,
                             uint32_t buffer_pages, const CostModel& model) {
  double sort = EstimateSortCost(pages_r, buffer_pages, model) +
                EstimateSortCost(pages_s, buffer_pages, model);
  double coscan = model.Cost(2, pages_r + pages_s >= 2
                                    ? pages_r + pages_s - 2
                                    : 0);
  return sort + coscan;
}

double EstimatePartitionJoinCost(uint32_t pages_r, uint32_t pages_s,
                                 uint32_t buffer_pages,
                                 const CostModel& model) {
  uint32_t area = buffer_pages > 3 ? buffer_pages - 3 : 1;
  if (pages_r <= area) {
    // In-memory path: one pass over each input.
    return model.Cost(2, pages_r + pages_s >= 2 ? pages_r + pages_s - 2 : 0);
  }
  double num_partitions =
      std::ceil(static_cast<double>(pages_r) / area);
  // Sampling (bounded by one scan), Grace write+read of both inputs
  // (one seek per partition per phase per relation), inner read.
  double sampling = model.Cost(1, pages_r > 0 ? pages_r - 1 : 0);
  double partition_io =
      2.0 * (2.0 * num_partitions * model.random_weight +
             static_cast<double>(pages_r + pages_s) *
                 model.sequential_weight);
  return sampling + partition_io;
}

double EstimateRadixJoinCost(uint32_t pages_r, uint32_t pages_s,
                             const CostModel& model) {
  return model.Cost(2, pages_r + pages_s >= 2 ? pages_r + pages_s - 2 : 0);
}

double EstimateSweepJoinCost(uint32_t pages_r, uint32_t pages_s,
                             uint32_t buffer_pages, const CostModel& model) {
  // Sort both + one co-scan — the sweep pays exactly sort-merge's I/O;
  // its advantage (gapless active maps, no back-up re-reads) is CPU/cache
  // work the I/O model does not price.
  return EstimateSortMergeCost(pages_r, pages_s, buffer_pages, model);
}

JoinPlan PlanVtJoin(StoredRelation* r, StoredRelation* s,
                    const ExecOptions& options) {
  const uint32_t pr = r->num_pages();
  const uint32_t ps = s->num_pages();
  const uint32_t b = options.buffer_pages;
  const CostModel& m = options.cost_model;
  const TemporalPredicate& pred = options.predicate;
  // Overlap-driven executors only see pairs that meet in a partition /
  // active window, so they can serve exactly the predicates whose
  // relations all share a chronon. The sweep additionally serves the
  // adjacency relations (meets/met-by) and is the only executor that does.
  const bool overlap_family = pred.ImpliesSharedChronon();
  const bool sweep_eligible = !pred.HasDisjointNonAdjacent();
  const std::string pred_rationale =
      "ineligible: predicate '" + pred.Name() +
      "' needs the adjacency-aware sweep executor";

  JoinPlan plan;
  // The radix candidate goes first: at equal estimated I/O (it ties
  // nested-loops and the in-memory partition path when everything fits),
  // stable_sort keeps it ahead — flat columnar probing beats the
  // tuple-at-a-time paths on CPU, which the I/O cost model cannot see.
  const uint64_t budget = ResolveRadixBudgetBytes(options);
  const uint64_t footprint = EstimateRadixFootprintBytes(pr, ps);
  if (!overlap_family) {
    plan.candidates.push_back({JoinAlgorithm::kInMemoryRadix,
                               std::numeric_limits<double>::infinity(),
                               pred_rationale});
  } else if (footprint <= budget) {
    plan.candidates.push_back(
        {JoinAlgorithm::kInMemoryRadix, EstimateRadixJoinCost(pr, ps, m),
         "columnar in-memory radix; est footprint " +
             std::to_string(footprint) + " B <= budget " +
             std::to_string(budget) + " B"});
  } else {
    plan.candidates.push_back(
        {JoinAlgorithm::kInMemoryRadix,
         std::numeric_limits<double>::infinity(),
         "ineligible: est footprint " + std::to_string(footprint) +
             " B exceeds budget " + std::to_string(budget) + " B"});
  }
  if (overlap_family) {
    plan.candidates.push_back(
        {JoinAlgorithm::kNestedLoop, EstimateNestedLoopCost(pr, ps, b, m),
         "blocks(r) x scan(s); exact closed form"});
    plan.candidates.push_back(
        {JoinAlgorithm::kSortMerge, EstimateSortMergeCost(pr, ps, b, m),
         "sort both + co-scan; back-up not modelled"});
    plan.candidates.push_back(
        {JoinAlgorithm::kPartition, EstimatePartitionJoinCost(pr, ps, b, m),
         "sample + Grace partition both + join scan; cache not modelled"});
  } else {
    plan.candidates.push_back({JoinAlgorithm::kNestedLoop,
                               std::numeric_limits<double>::infinity(),
                               pred_rationale});
    plan.candidates.push_back({JoinAlgorithm::kSortMerge,
                               std::numeric_limits<double>::infinity(),
                               pred_rationale});
    plan.candidates.push_back({JoinAlgorithm::kPartition,
                               std::numeric_limits<double>::infinity(),
                               pred_rationale});
  }
  // The sweep is listed after sort-merge, whose estimated I/O it ties:
  // under the default predicate stable_sort preserves every established
  // pick, while a meets/during/starts/... predicate leaves the sweep as
  // the only finite candidate.
  plan.candidates.push_back(
      {JoinAlgorithm::kSweep,
       sweep_eligible ? EstimateSweepJoinCost(pr, ps, b, m)
                      : std::numeric_limits<double>::infinity(),
       sweep_eligible
           ? "sort both + one sweep; active maps are in-memory"
           : "ineligible: predicate '" + pred.Name() +
                 "' contains before/after (reference oracle only)"});
  std::stable_sort(plan.candidates.begin(), plan.candidates.end(),
                   [](const JoinEstimate& a, const JoinEstimate& b2) {
                     return a.estimated_cost < b2.estimated_cost;
                   });
  plan.algorithm = plan.candidates.front().algorithm;
  return plan;
}

}  // namespace tempo
