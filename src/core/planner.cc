#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

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

namespace {

std::string Rounded(double cost) { return std::to_string(std::llround(cost)); }

/// Sorts the candidates cheapest first, keeping list order among equal
/// costs, and picks the first.
void Rank(JoinPlan* plan) {
  std::stable_sort(plan->candidates.begin(), plan->candidates.end(),
                   [](const JoinEstimate& a, const JoinEstimate& b) {
                     return a.estimated_cost < b.estimated_cost;
                   });
  plan->algorithm = plan->candidates.front().algorithm;
}

}  // namespace

double EstimateBackupPages(const std::vector<Interval>& samples,
                           uint64_t tuples_r, uint64_t tuples_s,
                           uint32_t pages_r, uint32_t pages_s,
                           uint32_t buffer_pages) {
  if (samples.empty() || pages_r == 0 || tuples_r == 0) return 0.0;
  // Samples come in draw order, which is uniformly random, so a prefix is
  // a uniform subsample; this many still give every run of the replay
  // its 32 samples, at a fraction of the cost of a whole scanned relation.
  constexpr size_t kMaxReplaySamples = 4096;
  const size_t m = std::min(samples.size(), kMaxReplaySamples);
  const double tuples_per_page =
      static_cast<double>(tuples_r) / static_cast<double>(pages_r);
  const double capacity = static_cast<double>(MergeWindowPages(buffer_pages)) *
                          tuples_per_page * static_cast<double>(m) /
                          static_cast<double>(tuples_r + tuples_s);
  std::vector<Interval> order(samples.begin(), samples.begin() + m);
  std::sort(order.begin(), order.end(), IntervalStartLess());
  // Replays RetentionBudget: an arrival first expires every retained
  // tuple ending before it, then joins the retained set, which sheds its
  // latest-ending members while over capacity. Two heaps over (end, sweep
  // position) find the earliest and the latest end; an entry that left
  // the set through the other heap is skipped when it surfaces.
  enum State : uint8_t { kRetained, kEvicted, kExpired };
  std::vector<State> state(m, kRetained);
  using Entry = std::pair<Chronon, size_t>;
  std::vector<Entry> earliest;  // min-heap
  std::vector<Entry> latest;    // max-heap
  earliest.reserve(m);
  latest.reserve(m);
  const auto later = std::less<Entry>();
  const auto sooner = std::greater<Entry>();
  size_t retained = 0;
  for (size_t i = 0; i < m; ++i) {
    const Chronon sweep = order[i].start();
    while (!earliest.empty() && earliest.front().first < sweep) {
      const size_t gone = earliest.front().second;
      std::pop_heap(earliest.begin(), earliest.end(), sooner);
      earliest.pop_back();
      if (state[gone] == kRetained) {
        state[gone] = kExpired;
        --retained;
      }
    }
    earliest.emplace_back(order[i].end(), i);
    std::push_heap(earliest.begin(), earliest.end(), sooner);
    latest.emplace_back(order[i].end(), i);
    std::push_heap(latest.begin(), latest.end(), later);
    ++retained;
    while (static_cast<double>(retained) > capacity) {
      const size_t victim = latest.front().second;
      std::pop_heap(latest.begin(), latest.end(), later);
      latest.pop_back();
      if (state[victim] == kRetained) {
        state[victim] = kEvicted;
        --retained;
      }
    }
  }
  // A run needs enough samples to estimate its evicted fraction: one
  // evicted sample among few would list its whole run, or none of it.
  constexpr size_t kSamplesPerRun = 32;
  const size_t runs =
      std::max<size_t>(1, std::min<size_t>(pages_r, m / kSamplesPerRun));
  const double pages_per_run =
      static_cast<double>(pages_r + pages_s) / static_cast<double>(runs);
  double pages = 0.0;
  for (size_t run = 0; run < runs; ++run) {
    const size_t begin = run * m / runs;
    const size_t end = (run + 1) * m / runs;
    size_t run_evicted = 0;
    for (size_t i = begin; i < end; ++i) {
      run_evicted += state[i] == kEvicted ? 1 : 0;
    }
    if (run_evicted == 0) continue;
    const double e = static_cast<double>(run_evicted) /
                     static_cast<double>(end - begin);
    pages += pages_per_run * (1.0 - std::pow(1.0 - e, tuples_per_page));
  }
  return pages;
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
         "catalog: sort both + co-scan; back-ups need a sample"});
    plan.candidates.push_back(
        {JoinAlgorithm::kPartition, EstimatePartitionJoinCost(pr, ps, b, m),
         "catalog lower bound: sample scan + Grace both; cache and "
         "overflow need a sample"});
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
           ? "catalog: sort both + one sweep; active maps not bounded "
             "by buffSize"
           : "ineligible: predicate '" + pred.Name() +
                 "' contains before/after (reference oracle only)"});
  Rank(&plan);
  return plan;
}

JoinPlan RepriceFromSample(const JoinPlan& catalog, StoredRelation* r,
                           StoredRelation* s, const ExecOptions& options,
                           const PartitionPlan& sampled, double sample_cost) {
  // A trivial plan drew no sample: the catalog's in-memory price stands.
  if (sampled.samples_drawn == 0) return catalog;
  const uint32_t pr = r->num_pages();
  const uint32_t ps = s->num_pages();
  const uint32_t b = options.buffer_pages;
  const CostModel& m = options.cost_model;
  const uint32_t k = sampled.num_partitions;

  // Grace scans both inputs and writes + reads s's partitions; C_join
  // already counts r's. A sample that collapsed to one partition skips
  // Grace and the tuple cache: one pass over each input, plus its chunks.
  const bool one_pass = k <= 1;
  const double scans = m.PassCost(pr) + m.PassCost(ps);
  const double grace =
      one_pass ? 0.0
               : scans + 2.0 * (static_cast<double>(k) * m.random_weight +
                                static_cast<double>(ps > k ? ps - k : 0) *
                                    m.sequential_weight);
  const double join = one_pass ? scans : sampled.est_join_cost;
  const double partition = grace + join + sampled.est_overflow_cost;
  const double backups = EstimateBackupPages(
      sampled.samples, r->num_tuples(), s->num_tuples(), pr, ps, b);
  // A back-up moves its sorted file's head, so the stream's next refill of
  // StreamChunkPages pages seeks again.
  const double backup_cost =
      backups * (m.random_weight + (m.random_weight - m.sequential_weight) /
                                       StreamChunkPages(b));
  const double sort_merge = EstimateSortMergeCost(pr, ps, b, m) + backup_cost;
  const std::string paid = "C_sample " + Rounded(sample_cost) + " paid + ";
  const std::string backed =
      " + " + Rounded(backups) + " back-up pages " + Rounded(backup_cost);

  JoinPlan plan;
  for (JoinEstimate c : catalog.candidates) {
    if (std::isfinite(c.estimated_cost)) {
      switch (c.algorithm) {
        case JoinAlgorithm::kPartition:
          c.estimated_cost = partition;
          c.rationale = "sampled: " + paid +
                        (one_pass ? "one partition, one pass over each " +
                                        Rounded(join)
                                  : "Grace " + Rounded(grace) + " + C_join " +
                                        Rounded(join)) +
                        " + " + std::to_string(sampled.est_overflow_chunks) +
                        " overflow chunks " +
                        Rounded(sampled.est_overflow_cost);
          break;
        case JoinAlgorithm::kSortMerge:
          c.estimated_cost = sort_merge;
          c.rationale = "sampled: " + paid + "sort both + co-scan" + backed;
          break;
        case JoinAlgorithm::kSweep:
          c.estimated_cost = sort_merge;
          c.rationale = "sampled: " + paid +
                        "priced as sort-merge; active maps not bounded by "
                        "buffSize" +
                        backed;
          break;
        case JoinAlgorithm::kNestedLoop:
        case JoinAlgorithm::kInMemoryRadix:
          c.rationale = paid + c.rationale;
          break;
      }
      c.estimated_cost += sample_cost;
    }
    plan.candidates.push_back(std::move(c));
  }
  Rank(&plan);
  return plan;
}

}  // namespace tempo
