#include <cmath>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "join/nested_loop_join.h"
#include "join/reference_join.h"
#include "service/join_request.h"
#include "test_util.h"
#include "workload/generator.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"dept", ValueType::kString}});
}

TEST(PlannerEstimateTest, NestedLoopMatchesAnalytic) {
  CostModel m = CostModel::Ratio(5.0);
  EXPECT_DOUBLE_EQ(EstimateNestedLoopCost(100, 100, 12, m),
                   NestedLoopAnalyticCost(100, 100, 12, m));
}

TEST(PlannerEstimateTest, SortMergeCheaperWithMoreMemory) {
  CostModel m = CostModel::Ratio(5.0);
  EXPECT_GT(EstimateSortMergeCost(1000, 1000, 8, m),
            EstimateSortMergeCost(1000, 1000, 256, m));
}

TEST(PlannerEstimateTest, InMemoryPartitionJoinIsTwoPasses) {
  CostModel m = CostModel::Ratio(5.0);
  // Outer fits the area: one pass over each input.
  EXPECT_DOUBLE_EQ(EstimatePartitionJoinCost(50, 80, 64, m),
                   m.Cost(2, 128));
}

TEST(PlannerEstimateTest, PartitionJoinScalesLinearly) {
  CostModel m = CostModel::Ratio(5.0);
  double small = EstimatePartitionJoinCost(1000, 1000, 64, m);
  double big = EstimatePartitionJoinCost(4000, 4000, 64, m);
  EXPECT_GT(big, 3.5 * small);
  EXPECT_LT(big, 4.5 * small);
}

TEST(PlannerTest, PicksNestedLoopWhenOuterFitsInMemory) {
  Disk disk;
  Random rng(1);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 200, 20, 500, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 200, 20, 500, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  ExecOptions options;
  options.buffer_pages = 1024;  // everything fits
  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  // With the outer resident, nested-loops is a single pass over each
  // input — nothing can beat it (the in-memory partition path ties; both
  // are acceptable, but neither sort-merge).
  EXPECT_NE(plan.algorithm, JoinAlgorithm::kSortMerge);
}

TEST(PlannerTest, PicksPartitionInPaperRegime) {
  // Big inputs, modest memory: the paper's headline regime.
  Disk disk;
  Random rng(2);
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 20000, 500, 5000, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 20000, 500, 5000, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  ExecOptions options;
  options.buffer_pages = r->num_pages() / 16;
  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  EXPECT_EQ(plan.algorithm, JoinAlgorithm::kPartition);
  // Ranking is complete and sorted; the radix candidate is ineligible at
  // this memory budget (infinite cost), so it ranks last.
  ASSERT_EQ(plan.candidates.size(), 5u);
  EXPECT_LE(plan.candidates[0].estimated_cost,
            plan.candidates[1].estimated_cost);
  EXPECT_LE(plan.candidates[1].estimated_cost,
            plan.candidates[2].estimated_cost);
  EXPECT_LE(plan.candidates[2].estimated_cost,
            plan.candidates[3].estimated_cost);
  EXPECT_EQ(plan.candidates.back().algorithm, JoinAlgorithm::kInMemoryRadix);
  EXPECT_TRUE(std::isinf(plan.candidates.back().estimated_cost));
}

TEST(PlannerTest, PicksRadixWhenBothInputsFitTheBudget) {
  Disk disk;
  Random rng(7);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 300, 20, 500, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 300, 20, 500, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  ExecOptions options;
  options.buffer_pages = 1024;  // budget 1024 pages >> both inputs
  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  // The radix path ties nested-loops on estimated I/O (one pass over each
  // input) and wins the tie: columnar probing is the better in-memory plan.
  EXPECT_EQ(plan.algorithm, JoinAlgorithm::kInMemoryRadix);
  ASSERT_EQ(plan.candidates.size(), 5u);
}

TEST(PlannerTest, ExecuteProducesCorrectResultAndAnnotations) {
  Disk disk;
  Random rng(3);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 500, 30, 600, 0.2);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 450, 30, 600, 0.2)) {
    s_tuples.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
  }
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  JoinRequest req;
  req.From(r.get(), s.get()).BufferPages(16);
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out));
  EXPECT_TRUE(stats.Has(Metric::kPlannedAlgorithm));
  EXPECT_TRUE(stats.Has(Metric::kPlannedCost));

  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, expected));
}

TEST(PlannerTest, AlgorithmNames) {
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kNestedLoop),
               "nested-loops");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kSortMerge), "sort-merge");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kPartition), "partition");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kInMemoryRadix),
               "in-memory-radix");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kSweep), "sweep");
}

// The predicate-aware ranking: adjacency predicates leave the sweep as
// the only finite-cost candidate, and RunJoin's kAuto branch routes to it.
TEST(PlannerTest, AdjacencyPredicateRoutesToSweep) {
  Disk disk;
  Random rng(11);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 400, 50, 800, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 400, 50, 800, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  ExecOptions options;
  options.buffer_pages = 16;
  options.predicate = TemporalPredicate::Exactly(AllenRelation::kMeets);
  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  EXPECT_EQ(plan.algorithm, JoinAlgorithm::kSweep);
  ASSERT_EQ(plan.candidates.size(), 5u);
  EXPECT_TRUE(std::isfinite(plan.candidates.front().estimated_cost));
  for (size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_TRUE(std::isinf(plan.candidates[i].estimated_cost));
  }
}

// Before/after predicates have no plannable executor at all.
TEST(PlannerTest, DisjointPredicateIsNotPlannable) {
  Disk disk;
  Random rng(12);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 50, 10, 200, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 50, 10, 200, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  JoinRequest req;
  req.From(r.get(), s.get()).BufferPages(16).Predicate(AllenRelation::kBefore);
  Status st = RunJoin(req, &out).status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("before"), std::string::npos);
}

// Generated inputs of the benchmark's shape: 128-byte records over a
// 10^6-chronon lifespan, about ten tuples per key, `long_lived` of each
// relation's `tuples` half a lifespan long.
struct GeneratedInputs {
  Disk disk;
  std::unique_ptr<StoredRelation> r, s;
};

std::unique_ptr<GeneratedInputs> Generate(uint64_t tuples,
                                          uint64_t long_lived) {
  auto in = std::make_unique<GeneratedInputs>();
  WorkloadSpec spec;
  spec.num_tuples = tuples;
  spec.num_long_lived = long_lived;
  spec.distinct_keys = tuples / 10;
  spec.tuple_bytes = 128;
  spec.seed = 3;
  in->r = GenerateRelation(&in->disk, spec, "r").value();
  spec.seed = 4;
  in->s = GenerateRelation(&in->disk, spec, "s").value();
  return in;
}

// Runs `executor` over the inputs into an uncharged output, so the stats
// hold the join's own I/O.
JoinRunStats RunOn(GeneratedInputs* in, JoinExecutor executor,
                   uint32_t buffer_pages, ExecContext* ctx = nullptr) {
  StoredRelation out(
      &in->disk,
      DeriveNaturalJoinLayout(in->r->schema(), in->s->schema())->output,
      "out");
  EXPECT_TRUE(out.SetCharged(false).ok());
  JoinRequest req;
  req.From(in->r.get(), in->s.get()).Using(executor).BufferPages(buffer_pages);
  StatusOr<JoinRunStats> stats = RunJoin(req, &out, ctx);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(in->disk.DeleteFile(out.file_id()).ok());
  return stats.ok() ? *stats : JoinRunStats{};
}

JoinAlgorithm Planned(const JoinRunStats& stats) {
  return static_cast<JoinAlgorithm>(
      static_cast<int>(stats.Get(Metric::kPlannedAlgorithm)));
}

// The back-up estimate follows the Figure 7 curve: nothing while the
// long-lived tuples' active set fits the merge window, then more pages as
// their share grows, and nothing again when the buffer holds them all.
TEST(PlannerEstimateTest, BackupPagesFollowLongLivedShare) {
  double previous = -1.0;
  for (uint64_t long_lived : {0, 512, 2048, 4096, 8192}) {
    auto in = Generate(16384, long_lived);
    Random rng(5);
    PartitionPlanOptions options;
    options.buffer_pages = 16;
    TEMPO_ASSERT_OK_AND_ASSIGN(
        PartitionPlan plan,
        DeterminePartIntervals(in->r.get(), options, &rng));
    const uint32_t pages = in->r->num_pages();
    const double backups =
        EstimateBackupPages(plan.samples, in->r->num_tuples(),
                            in->s->num_tuples(), pages, pages, 16);
    if (long_lived == 0) {
      EXPECT_EQ(backups, 0.0);
    } else {
      EXPECT_GT(backups, previous) << long_lived << " long-lived";
    }
    EXPECT_LE(backups, 2.0 * pages);
    EXPECT_EQ(EstimateBackupPages(plan.samples, in->r->num_tuples(),
                                  in->s->num_tuples(), pages, pages,
                                  4 * pages),
              0.0)
        << long_lived << " long-lived";
    previous = backups;
  }
}

// The tight-memory regime: a 16-page buffer, inputs over 30 times larger,
// a quarter of the tuples long-lived. The catalog stage prefers partition,
// whose lower bound leaves out the retained long-lived tuples that
// overflow every partition's 13-page area. The sampled stage prices those
// chunks and sort-merge's back-ups, and runs sort-merge: not partition,
// and not the sweep, whose active set buffSize does not bound.
TEST(PlannerSampledStageTest, TightMemoryPicksSortMergeOverPartition) {
  auto in = Generate(16384, 4096);
  ASSERT_GE(in->r->num_pages(), 30u * 16);
  ExecOptions options;
  options.buffer_pages = 16;
  EXPECT_EQ(PlanVtJoin(in->r.get(), in->s.get(), options).algorithm,
            JoinAlgorithm::kPartition);

  ExecContext ctx;
  const JoinRunStats autorun = RunOn(in.get(), JoinExecutor::kAuto, 16, &ctx);
  EXPECT_EQ(Planned(autorun), JoinAlgorithm::kSortMerge);
  // The sample is the query's: one break-even scan of r joins the sort-
  // merge run's I/O, and the span tree (EXPLAIN's TOTAL row) holds it.
  const JoinRunStats sort_merge =
      RunOn(in.get(), JoinExecutor::kSortMerge, 16);
  const IoStats sample = autorun.io - sort_merge.io;
  EXPECT_EQ(sample.random_reads, 1u);
  EXPECT_EQ(sample.sequential_reads, in->r->num_pages() - 1);
  EXPECT_EQ(sample.random_writes + sample.sequential_writes, 0u);
  EXPECT_TRUE(ctx.tracer().TotalIo() == autorun.io)
      << "tree " << ctx.tracer().TotalIo().ToString() << " run "
      << autorun.io.ToString();
  const SpanNode* plan_span = ctx.tracer().root().FindPhase(Phase::kPlan);
  ASSERT_NE(plan_span, nullptr);
  ASSERT_NE(plan_span->FindPhase(Phase::kSampling), nullptr);
  EXPECT_TRUE(plan_span->InclusiveIo() == sample);

  const CostModel& model = options.cost_model;
  const JoinRunStats partition =
      RunOn(in.get(), JoinExecutor::kPartition, 16);
  EXPECT_LT(autorun.Cost(model), 0.6 * partition.Cost(model));
}

// The paper's regime: inputs 16 times the buffer, few long-lived tuples.
// The sampled partition price still wins, and the executor takes the
// planner's partitioning instead of sampling again: the query's charged
// I/O is exactly that of an explicit partition run.
TEST(PlannerSampledStageTest, PaperRegimeHandsThePartitioningOver) {
  auto in = Generate(16384, 1024);
  const uint32_t buffer = in->r->num_pages() / 16;
  ExecContext ctx;
  const JoinRunStats autorun =
      RunOn(in.get(), JoinExecutor::kAuto, buffer, &ctx);
  EXPECT_EQ(Planned(autorun), JoinAlgorithm::kPartition);
  const JoinRunStats partition =
      RunOn(in.get(), JoinExecutor::kPartition, buffer);
  EXPECT_TRUE(autorun.io == partition.io)
      << "auto " << autorun.io.ToString() << " partition "
      << partition.io.ToString();
  EXPECT_EQ(autorun.Get(Metric::kSamples), partition.Get(Metric::kSamples));
  EXPECT_EQ(autorun.Get(Metric::kPartitions),
            partition.Get(Metric::kPartitions));
  EXPECT_TRUE(ctx.tracer().TotalIo() == autorun.io);
  // One sample: it ran under the plan span, and the executor chose no
  // intervals of its own.
  const SpanNode& root = ctx.tracer().root();
  ASSERT_NE(root.FindPhase(Phase::kPlan), nullptr);
  EXPECT_NE(root.FindPhase(Phase::kPlan)->FindPhase(Phase::kSampling),
            nullptr);
  EXPECT_EQ(root.FindPhase(Phase::kChooseIntervals), nullptr);
}

// Inputs 4 times the buffer: nested loops reads s five times, which its
// exact closed form prices below the partition join's sampled price (two
// Grace passes, the partitions' re-read and the tuple cache), so kAuto
// runs nested loops after paying for the sample.
TEST(PlannerSampledStageTest, AmpleMemoryPicksNestedLoopsOverPartition) {
  auto in = Generate(16384, 2000);
  const uint32_t buffer = in->r->num_pages() / 4;
  ExecOptions options;
  options.buffer_pages = buffer;
  EXPECT_EQ(PlanVtJoin(in->r.get(), in->s.get(), options).algorithm,
            JoinAlgorithm::kPartition);
  const JoinRunStats autorun = RunOn(in.get(), JoinExecutor::kAuto, buffer);
  EXPECT_EQ(Planned(autorun), JoinAlgorithm::kNestedLoop);
  const JoinRunStats nested = RunOn(in.get(), JoinExecutor::kNestedLoop,
                                    buffer);
  const JoinRunStats partition =
      RunOn(in.get(), JoinExecutor::kPartition, buffer);
  EXPECT_LT(autorun.Cost(options.cost_model),
            partition.Cost(options.cost_model));
  EXPECT_GT(autorun.Cost(options.cost_model),
            nested.Cost(options.cost_model));
}

// When both inputs fit the radix budget the catalog stage picks radix and
// no sample is drawn: the run's I/O is the radix run's.
TEST(PlannerSampledStageTest, RadixFittingInputDrawsNoSample) {
  auto in = Generate(2048, 128);
  ExecContext ctx;
  const JoinRunStats autorun =
      RunOn(in.get(), JoinExecutor::kAuto, 1024, &ctx);
  EXPECT_EQ(Planned(autorun), JoinAlgorithm::kInMemoryRadix);
  EXPECT_EQ(ctx.tracer().root().FindPhase(Phase::kSampling), nullptr);
  const JoinRunStats radix =
      RunOn(in.get(), JoinExecutor::kInMemoryRadix, 1024);
  EXPECT_TRUE(autorun.io == radix.io);
}

// 20,000 r and 20,000 s tuples, all stamped [5, 5]: r's sample covers one
// chronon and collapses to one partition, which the partition executor
// joins in chunks of its area, re-reading s for each. The sampled stage
// prices that plan as one pass over each input plus its overflow chunks,
// so kAuto runs sort-merge at 8 pages and nested loops at 16, each below
// the explicit partition run even with the sample paid.
TEST(PlannerSampledStageTest, CollapsedSampleIsPricedWithItsChunks) {
  GeneratedInputs in;
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
  for (int64_t i = 0; i < 20000; ++i) {
    r_tuples.push_back(T(i, "r" + std::to_string(i) + "...........", 5, 5));
    s_tuples.push_back(
        Tuple({Value(i), Value("s" + std::to_string(i) + "...........")},
              Interval(5, 5)));
  }
  in.r = MakeRelation(&in.disk, TestSchema(), r_tuples, "r");
  in.s = MakeRelation(&in.disk, SSchema(), s_tuples, "s");
  struct Case {
    uint32_t buffer_pages;
    JoinAlgorithm planned;
  };
  for (const Case& c : {Case{8, JoinAlgorithm::kSortMerge},
                        Case{16, JoinAlgorithm::kNestedLoop}}) {
    ExecOptions options;
    options.buffer_pages = c.buffer_pages;
    EXPECT_EQ(PlanVtJoin(in.r.get(), in.s.get(), options).algorithm,
              JoinAlgorithm::kPartition);
    const JoinRunStats partition =
        RunOn(&in, JoinExecutor::kPartition, c.buffer_pages);
    EXPECT_EQ(partition.Get(Metric::kPartitions), 1.0);
    EXPECT_GT(partition.Get(Metric::kOverflowChunks), 0.0);
    const JoinRunStats autorun =
        RunOn(&in, JoinExecutor::kAuto, c.buffer_pages);
    EXPECT_EQ(Planned(autorun), c.planned) << c.buffer_pages << " pages";
    EXPECT_LT(autorun.Cost(options.cost_model),
              partition.Cost(options.cost_model))
        << c.buffer_pages << " pages";
  }
}

// The picked plan's estimate (kPlannedCost, sample included) is within a
// factor of two of the run's charged cost in both paged regimes: ample
// memory without long-lived tuples, and the tight-memory, long-lived-heavy
// regime where the catalog stage alone is off by about seven.
TEST(PlannerTest, EstimatesTrackMeasuredCosts) {
  struct Regime {
    uint64_t tuples;
    uint64_t long_lived;
    uint32_t buffer_divisor;
  };
  for (const Regime& regime : {Regime{16384, 0, 8}, Regime{16384, 4096, 33}}) {
    auto in = Generate(regime.tuples, regime.long_lived);
    const uint32_t buffer = in->r->num_pages() / regime.buffer_divisor;
    const JoinRunStats stats = RunOn(in.get(), JoinExecutor::kAuto, buffer);
    const double measured = stats.Cost(CostModel::Ratio(5.0));
    const double estimated = stats.Get(Metric::kPlannedCost);
    EXPECT_GT(estimated, measured / 2.0)
        << JoinAlgorithmName(Planned(stats)) << " at " << buffer << " pages";
    EXPECT_LT(estimated, measured * 2.0)
        << JoinAlgorithmName(Planned(stats)) << " at " << buffer << " pages";
  }
}

}  // namespace
}  // namespace tempo
