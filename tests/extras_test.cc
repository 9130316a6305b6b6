// Coverage for smaller public APIs not exercised by the module suites.

#include <gtest/gtest.h>

#include "common/format.h"
#include "core/determine_part_intervals.h"
#include "core/partition_join.h"
#include "join/nested_loop_join.h"
#include "core/partition_spec.h"
#include "service/join_request.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

TEST(IntervalExtrasTest, BeforeIsStrict) {
  EXPECT_TRUE(Interval(0, 4).Before(Interval(5, 9)));
  EXPECT_FALSE(Interval(0, 5).Before(Interval(5, 9)));
  EXPECT_FALSE(Interval(5, 9).Before(Interval(0, 4)));
}

TEST(ValueExtrasTest, OrderingIsTypeThenValue) {
  // variant ordering: same-type values compare by value.
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_FALSE(Value("b") < Value("a"));
}

TEST(PartitionSpecPropertyTest, IndexOfAgreesWithLinearScan) {
  Random rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    // Random strictly-increasing boundaries.
    std::vector<Chronon> bounds;
    Chronon b = rng.UniformRange(-100, 0);
    size_t count = 1 + rng.Uniform(10);
    for (size_t i = 0; i < count; ++i) {
      b += 1 + rng.UniformRange(0, 40);
      bounds.push_back(b);
    }
    TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                               PartitionSpec::FromBoundaries(bounds));
    for (int probe = 0; probe < 50; ++probe) {
      Chronon t = rng.UniformRange(-200, 600);
      size_t expected = spec.num_partitions();
      for (size_t i = 0; i < spec.num_partitions(); ++i) {
        if (spec.partition(i).Contains(t)) {
          expected = i;
          break;
        }
      }
      ASSERT_LT(expected, spec.num_partitions());
      EXPECT_EQ(spec.IndexOf(t), expected);
    }
    // Coverage and adjacency invariants.
    EXPECT_EQ(spec.partition(0).start(), kChrononMin);
    EXPECT_EQ(spec.partition(spec.num_partitions() - 1).end(), kChrononMax);
  }
}

TEST(PartitionCostCurveTest, CandidatesAscendAndSampleCostMonotone) {
  Disk disk;
  Random rng(9);
  auto rel = MakeRelation(&disk, TestSchema(),
                          RandomTuples(rng, 6000, 100, 5000, 0.3), "r");
  PartitionPlanOptions options;
  options.buffer_pages = rel->num_pages() / 3;
  Random plan_rng(1);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto curve,
                             PartitionCostCurve(rel.get(), options, &plan_rng));
  ASSERT_GT(curve.size(), 3u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].part_size_pages, curve[i - 1].part_size_pages);
    EXPECT_GE(curve[i].c_sample + 1e-9, curve[i - 1].c_sample);
    EXPECT_LT(curve[i].num_partitions, curve[i - 1].num_partitions + 1);
  }
  // The optimizer's pick equals the curve's minimum.
  Random plan_rng2(1);
  TEMPO_ASSERT_OK_AND_ASSIGN(
      PartitionPlan plan, DeterminePartIntervals(rel.get(), options, &plan_rng2));
  double best = curve.front().total();
  uint32_t best_ps = curve.front().part_size_pages;
  for (const auto& p : curve) {
    if (p.total() <= best) {
      best = p.total();
      best_ps = p.part_size_pages;
    }
  }
  EXPECT_EQ(plan.part_size_pages, best_ps);
}

TEST(PartitionCostCurveTest, EmptyForFittingRelation) {
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 1)}, "r");
  PartitionPlanOptions options;
  options.buffer_pages = 64;
  Random rng(1);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto curve,
                             PartitionCostCurve(rel.get(), options, &rng));
  EXPECT_TRUE(curve.empty());
}

TEST(FormatExtrasTest, FractionalBytes) {
  // 1.5 MiB is not an exact multiple of MiB: one-decimal rendering.
  EXPECT_EQ(FormatBytes(1536 * 1024), "1.5 MiB");
}

TEST(DiskExtrasTest, FileNamesForDebugging) {
  Disk disk;
  FileId f = disk.CreateFile("my-relation");
  EXPECT_EQ(disk.FileName(f), "my-relation");
  EXPECT_EQ(disk.FileName(999), "<unknown>");
}


TEST(DeterminismTest, PartitionJoinIsReproducibleFromSeed) {
  auto run = []() {
    Random rng(42);
    Disk disk;
    auto r = tempo::testing::MakeRelation(
        &disk, tempo::testing::TestSchema(),
        tempo::testing::RandomTuples(rng, 2000, 40, 1500, 0.3), "r");
    Schema s_schema({{"key", ValueType::kInt64},
                     {"dept", ValueType::kString}});
    std::vector<Tuple> s_tuples;
    for (const Tuple& t :
         tempo::testing::RandomTuples(rng, 1800, 40, 1500, 0.3)) {
      s_tuples.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
    }
    auto s = tempo::testing::MakeRelation(&disk, s_schema, s_tuples, "s");
    auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
    StoredRelation out(&disk, layout->output, "out");
    JoinRequest req;
    req.From(r.get(), s.get())
        .Using(JoinExecutor::kPartition)
        .BufferPages(12)
        .Seed(7);
    auto stats = RunJoin(req, &out);
    EXPECT_TRUE(stats.ok());
    return std::make_tuple(stats->io, stats->output_tuples,
                           stats->Get(Metric::kPartitions),
                           stats->Get(Metric::kSamples));
  };
  EXPECT_EQ(run(), run());
}


TEST(SingleHeadModelTest, NestedLoopMatchesAnalyticUnderSingleHead) {
  Random rng(5);
  Disk disk;
  disk.accountant().set_head_model(HeadModel::kSingleHead);
  auto r = tempo::testing::MakeRelation(
      &disk, tempo::testing::TestSchema(),
      tempo::testing::RandomTuples(rng, 3000, 40, 1500, 0.1), "r");
  Schema s_schema({{"key", ValueType::kInt64}, {"dept", ValueType::kString}});
  std::vector<Tuple> s_tuples;
  for (const Tuple& t :
       tempo::testing::RandomTuples(rng, 3000, 40, 1500, 0.1)) {
    s_tuples.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
  }
  auto s = tempo::testing::MakeRelation(&disk, s_schema, s_tuples, "s");
  auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
  StoredRelation out(&disk, layout->output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  disk.accountant().Reset();
  // Reset clears the head; keep the single-head model.
  disk.accountant().set_head_model(HeadModel::kSingleHead);
  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kNestedLoop).BufferPages(10);
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out));
  CostModel m = CostModel::Ratio(5.0);
  EXPECT_DOUBLE_EQ(stats.Cost(m),
                   NestedLoopAnalyticCost(r->num_pages(), s->num_pages(), 10,
                                          m, HeadModel::kSingleHead));
}


// The pure time-join (T-join [GS90]): schemas sharing no attribute make
// the natural join degenerate to a timestamp-filtered cross product, and
// the partition framework evaluates it unchanged.
TEST(TimeJoinTest, DisjointSchemasJoinOnOverlapOnly) {
  Disk disk;
  Schema a_schema({{"a", ValueType::kInt64}});
  Schema b_schema({{"b", ValueType::kString}});
  auto mk_a = [&](int64_t v, Chronon s, Chronon e) {
    return Tuple({Value(v)}, Interval(s, e));
  };
  auto mk_b = [&](const char* v, Chronon s, Chronon e) {
    return Tuple({Value(v)}, Interval(s, e));
  };
  StoredRelation a(&disk, a_schema, "a");
  StoredRelation b(&disk, b_schema, "b");
  Random rng(3);
  std::vector<Tuple> a_tuples, b_tuples;
  for (int i = 0; i < 120; ++i) {
    Chronon s = rng.UniformRange(0, 300);
    a_tuples.push_back(mk_a(i, s, s + rng.UniformRange(0, 40)));
    Chronon s2 = rng.UniformRange(0, 300);
    b_tuples.push_back(
        mk_b(("x" + std::to_string(i)).c_str(), s2,
             s2 + rng.UniformRange(0, 40)));
  }
  for (auto& t : a_tuples) TEMPO_ASSERT_OK(a.Append(t));
  for (auto& t : b_tuples) TEMPO_ASSERT_OK(b.Append(t));
  TEMPO_ASSERT_OK(a.Flush());
  TEMPO_ASSERT_OK(b.Flush());

  auto layout = DeriveNaturalJoinLayout(a_schema, b_schema);
  TEMPO_ASSERT_OK(layout.status());
  StoredRelation out(&disk, layout->output, "out");
  PartitionJoinOptions options;
  options.buffer_pages = 8;
  options.forced_num_partitions = 4;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionVtJoin(&a, &b, &out, options));

  uint64_t expected = 0;
  for (const Tuple& x : a_tuples) {
    for (const Tuple& y : b_tuples) {
      if (x.interval().Overlaps(y.interval())) ++expected;
    }
  }
  EXPECT_EQ(stats.output_tuples, expected);
  EXPECT_GT(expected, 0u);
}

}  // namespace
}  // namespace tempo
