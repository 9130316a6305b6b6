#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "join/external_sort.h"
#include "join/join_common.h"
#include "join/nested_loop_join.h"
#include "join/reference_join.h"
#include "service/join_request.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::PageDigest;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"dept", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& dept, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(dept)}, Interval(vs, ve));
}

/// Runs `executor` on (r, s) into `out` through RunJoin.
StatusOr<JoinRunStats> RunNamed(JoinExecutor executor, StoredRelation* r,
                                StoredRelation* s, StoredRelation* out,
                                const ExecOptions& options) {
  JoinRequest req;
  req.From(r, s).Using(executor);
  req.options = options;
  return RunJoin(req, out);
}

// ---------------------------------------------------------------------
// Reference join semantics
// ---------------------------------------------------------------------

TEST(ReferenceJoinTest, MatchesOnKeyAndOverlap) {
  std::vector<Tuple> r{T(1, "a", 0, 10), T(2, "b", 0, 10)};
  std::vector<Tuple> s{S(1, "x", 5, 15), S(2, "y", 20, 30), S(3, "z", 0, 10)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r, SSchema(), s));
  // Only (1,a)x(1,x) matches: same key AND overlapping time.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value(0).AsInt64(), 1);
  EXPECT_EQ(out[0].value(1).AsString(), "a");
  EXPECT_EQ(out[0].value(2).AsString(), "x");
  EXPECT_EQ(out[0].interval(), Interval(5, 10));
}

TEST(ReferenceJoinTest, ResultIntervalIsMaximalOverlap) {
  std::vector<Tuple> r{T(1, "a", 3, 20)};
  std::vector<Tuple> s{S(1, "x", 0, 7)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r, SSchema(), s));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval(), Interval(3, 7));
}

TEST(ReferenceJoinTest, TouchingEndpointsJoin) {
  std::vector<Tuple> r{T(1, "a", 0, 5)};
  std::vector<Tuple> s{S(1, "x", 5, 9)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r, SSchema(), s));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval(), Interval(5, 5));
}

TEST(ReferenceJoinTest, AdjacentIntervalsDoNotJoin) {
  std::vector<Tuple> r{T(1, "a", 0, 4)};
  std::vector<Tuple> s{S(1, "x", 5, 9)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r, SSchema(), s));
  EXPECT_TRUE(out.empty());
}

TEST(ReferenceJoinTest, DuplicateTuplesMultiplyOut) {
  std::vector<Tuple> r{T(1, "a", 0, 5), T(1, "a", 0, 5)};
  std::vector<Tuple> s{S(1, "x", 0, 5), S(1, "x", 0, 5)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r, SSchema(), s));
  EXPECT_EQ(out.size(), 4u);
}

TEST(SameTupleMultisetTest, DetectsEqualityAndDifference) {
  std::vector<Tuple> a{T(1, "a", 0, 1), T(2, "b", 2, 3)};
  std::vector<Tuple> b{T(2, "b", 2, 3), T(1, "a", 0, 1)};
  EXPECT_TRUE(SameTupleMultiset(a, b));
  b.push_back(T(1, "a", 0, 1));
  EXPECT_FALSE(SameTupleMultiset(a, b));
  // Multiplicity matters.
  std::vector<Tuple> c{T(1, "a", 0, 1), T(1, "a", 0, 1)};
  std::vector<Tuple> d{T(1, "a", 0, 1), T(2, "b", 2, 3)};
  EXPECT_FALSE(SameTupleMultiset(c, d));
}

TEST(SameTupleMultisetTest, NaNPayloadsOfOneAttributeAreEqual) {
  const double nan = std::nan("");
  auto row = [](double x, const char* s) {
    return Tuple({Value(int64_t{1}), Value(x), Value(s)}, Interval(0, 4));
  };
  EXPECT_TRUE(SameTupleMultiset({row(nan, "a"), row(2.0, "b")},
                                {row(2.0, "b"), row(nan, "a")}));
  // Values after a NaN still count, and NaN is no number.
  EXPECT_FALSE(SameTupleMultiset({row(nan, "a")}, {row(nan, "b")}));
  EXPECT_FALSE(SameTupleMultiset({row(nan, "a")}, {row(1.0, "a")}));
  // Value equality and NaN join keys keep IEEE semantics.
  const Value nan_value(nan);
  EXPECT_FALSE(nan_value == nan_value);
}

// ---------------------------------------------------------------------
// Shared harness for executor-vs-oracle comparisons
// ---------------------------------------------------------------------

struct ExecutorCase {
  JoinExecutor executor;
  uint32_t buffer_pages;
  double long_lived_prob;
  uint64_t seed;
};

// Names the parameter in the listed test name by its executor alone (the
// buffer, long-lived share and seed are in the name suffix), instead of
// GTest's default dump of the struct's bytes.
void PrintTo(const ExecutorCase& c, std::ostream* os) {
  *os << JoinExecutorName(c.executor);
}

class ExecutorOracleTest : public ::testing::TestWithParam<ExecutorCase> {};

TEST_P(ExecutorOracleTest, MatchesReferenceJoin) {
  const ExecutorCase& c = GetParam();
  Random rng(c.seed);
  std::vector<Tuple> r_tuples =
      RandomTuples(rng, 300, /*key_space=*/40, /*lifespan=*/500,
                   c.long_lived_prob);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 280, 40, 500, c.long_lived_prob)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }

  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      NaturalJoinLayout layout,
      DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");

  JoinRequest req;
  req.From(r.get(), s.get()).Using(c.executor).BufferPages(c.buffer_pages);
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out));

  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_EQ(stats.output_tuples, expected.size());
  EXPECT_TRUE(SameTupleMultiset(actual, expected))
      << JoinExecutorName(c.executor) << ": got " << actual.size()
      << " tuples, want " << expected.size();
}

std::vector<ExecutorCase> MakeExecutorCases() {
  std::vector<ExecutorCase> cases;
  for (uint32_t pages : {4u, 6u, 16u, 64u}) {
    for (double llp : {0.0, 0.2, 0.8}) {
      for (uint64_t seed : {1ull, 2ull}) {
        cases.push_back({JoinExecutor::kNestedLoop, pages, llp, seed});
        cases.push_back({JoinExecutor::kSortMerge, pages, llp, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecutorOracleTest, ::testing::ValuesIn(MakeExecutorCases()),
    [](const ::testing::TestParamInfo<ExecutorCase>& info) {
      const ExecutorCase& c = info.param;
      const char* name =
          c.executor == JoinExecutor::kNestedLoop ? "nested_loop"
                                                  : "sort_merge";
      return std::string(name) + "_b" + std::to_string(c.buffer_pages) +
             "_ll" + std::to_string(static_cast<int>(c.long_lived_prob * 10)) +
             "_s" + std::to_string(c.seed);
    });

// ---------------------------------------------------------------------
// Nested loop specifics
// ---------------------------------------------------------------------

TEST(NestedLoopTest, CostMatchesAnalyticPerFile) {
  Random rng(11);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 2000, 50, 1000, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 2000, 50, 1000, 0.1)) {
    s->Append(S(t.value(0).AsInt64(), "d", t.interval().start(),
                t.interval().end())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());

  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));

  for (uint32_t pages : {4u, 8u, 32u}) {
    disk.accountant().Reset();
    ExecOptions options;
    options.buffer_pages = pages;
    TEMPO_ASSERT_OK(out.Clear());
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats,
        RunNamed(JoinExecutor::kNestedLoop, r.get(), s.get(), &out, options));
    CostModel model = CostModel::Ratio(5.0);
    EXPECT_DOUBLE_EQ(
        stats.Cost(model),
        NestedLoopAnalyticCost(r->num_pages(), s->num_pages(), pages, model,
                               HeadModel::kPerFile))
        << "buffer=" << pages;
  }
}

TEST(NestedLoopTest, AnalyticSingleHeadChargesBlockSeeks) {
  CostModel m = CostModel::Ratio(10.0);
  double per_file = NestedLoopAnalyticCost(100, 100, 12, m,
                                           HeadModel::kPerFile);
  double single = NestedLoopAnalyticCost(100, 100, 12, m,
                                         HeadModel::kSingleHead);
  EXPECT_GT(single, per_file);
}

TEST(NestedLoopTest, MoreMemoryFewerBlocks) {
  CostModel m = CostModel::Ratio(5.0);
  EXPECT_GT(NestedLoopAnalyticCost(1000, 1000, 10, m),
            NestedLoopAnalyticCost(1000, 1000, 100, m));
}

TEST(NestedLoopTest, RejectsTinyBuffer) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 1)}, "r");
  auto s = MakeRelation(&disk, SSchema(), {S(1, "x", 0, 1)}, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 2;
  EXPECT_FALSE(
      RunNamed(JoinExecutor::kNestedLoop, r.get(), s.get(), &out, options)
          .ok());
}

// ---------------------------------------------------------------------
// External sort
// ---------------------------------------------------------------------

class ExternalSortTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ExternalSortTest, SortsAndPreservesMultiset) {
  Random rng(GetParam() + 100);
  Disk disk;
  std::vector<Tuple> tuples = RandomTuples(rng, 3000, 100, 2000, 0.3);
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation sorted,
                             ExternalSortByVs(rel.get(), GetParam(), "r.s"));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out,
                             sorted.relation->ReadAll());
  ASSERT_EQ(out.size(), tuples.size());
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_FALSE(IntervalStartLess()(out[i].interval(),
                                     out[i - 1].interval()))
        << "out of order at " << i;
  }
  EXPECT_TRUE(SameTupleMultiset(out, tuples));
}

INSTANTIATE_TEST_SUITE_P(BufferSizes, ExternalSortTest,
                         ::testing::Values(3, 4, 5, 8, 16, 64, 512));

TEST(ExternalSortTest2, EmptyRelation) {
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(), {}, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation sorted,
                             ExternalSortByVs(rel.get(), 8, "r.s"));
  EXPECT_EQ(sorted.relation->num_tuples(), 0u);
}

TEST(ExternalSortTest2, CleansUpTempRuns) {
  Random rng(5);
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(),
                          RandomTuples(rng, 3000, 100, 2000, 0.0), "r");
  uint64_t before = disk.TotalPages();
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation sorted,
                             ExternalSortByVs(rel.get(), 4, "r.s"));
  // Only input + sorted output remain.
  EXPECT_EQ(disk.TotalPages(), before + sorted.relation->num_pages());
}

TEST(ExternalSortTest2, SmallBufferCostsMoreThanLarge) {
  Random rng(6);
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(),
                          RandomTuples(rng, 5000, 100, 2000, 0.0), "r");
  disk.accountant().Reset();
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation s1,
                             ExternalSortByVs(rel.get(), 4, "a"));
  IoStats small = disk.accountant().stats();
  disk.accountant().Reset();
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation s2,
                             ExternalSortByVs(rel.get(), 256, "b"));
  IoStats large = disk.accountant().stats();
  EXPECT_GT(small.Cost(CostModel::Ratio(5.0)),
            large.Cost(CostModel::Ratio(5.0)));
}

// Runs outnumber the merge fan-in at 3 and 4 buffer pages, so the sort
// takes several merge passes, and most records share their (Vs, Ve) key
// with others, so the order of ties shows in the output. The digests and
// charged I/O were recorded before the run merge read records as views:
// the sorted pages and what reading and writing them costs must not move.
TEST(ExternalSortTest2, MultiPassMergeMatchesGoldenDigest) {
  std::vector<Tuple> tuples;
  Random rng(28);
  for (int i = 0; i < 3000; ++i) {
    const Chronon start = rng.UniformRange(0, 19);
    const Chronon dur = rng.Bernoulli(0.5) ? 0 : 4;
    tuples.push_back(T(i, "v" + std::to_string(i % 13), start, start + dur));
  }
  struct Case {
    uint32_t buffer_pages;
    uint64_t digest;
    IoStats io;
  };
  const Case cases[] = {
      {3, 9307140859478519402ull, IoStats{20, 119, 20, 119}},
      {4, 15638019021302495794ull, IoStats{11, 69, 11, 69}},
  };
  for (const Case& c : cases) {
    Disk disk;
    auto rel = MakeRelation(&disk, TestSchema(), tuples, "r");
    ASSERT_GT(rel->num_pages(), 4 * c.buffer_pages);
    disk.accountant().Reset();
    TEMPO_ASSERT_OK_AND_ASSIGN(
        SortedRelation sorted,
        ExternalSortByVs(rel.get(), c.buffer_pages, "r.s"));
    const IoStats io = disk.accountant().stats();
    EXPECT_EQ(PageDigest(sorted.relation.get()), c.digest)
        << c.buffer_pages << " pages";
    EXPECT_EQ(io.random_reads, c.io.random_reads) << c.buffer_pages;
    EXPECT_EQ(io.sequential_reads, c.io.sequential_reads) << c.buffer_pages;
    EXPECT_EQ(io.random_writes, c.io.random_writes) << c.buffer_pages;
    EXPECT_EQ(io.sequential_writes, c.io.sequential_writes)
        << c.buffer_pages;
  }
}

// ---------------------------------------------------------------------
// Sort-merge specifics
// ---------------------------------------------------------------------

TEST(SortMergeTest, NoBackupWithoutLongLivedTuples) {
  Random rng(21);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 2000, 50, 5000, 0.0), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 2000, 50, 5000, 0.0)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 64;
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats,
      RunNamed(JoinExecutor::kSortMerge, r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.Get(Metric::kBackupPageReads), 0.0);
}

TEST(SortMergeTest, LongLivedTuplesCauseBackupWhenMemoryTight) {
  Random rng(22);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 3000, 10, 3000, 0.4), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 3000, 10, 3000, 0.4)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  ExecOptions options;
  options.buffer_pages = 6;  // tiny window
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats,
      RunNamed(JoinExecutor::kSortMerge, r.get(), s.get(), &out, options));
  EXPECT_GT(stats.Get(Metric::kBackupPageReads), 0.0);
}

TEST(SortMergeTest, AmpleMemorySuppressesBackup) {
  Random rng(23);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 1500, 10, 3000, 0.4), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 1500, 10, 3000, 0.4)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 4096;  // everything fits
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats,
      RunNamed(JoinExecutor::kSortMerge, r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.Get(Metric::kBackupPageReads), 0.0);

  // Without back-ups sort-merge is the sweep: one sorted co-sweep, so the
  // same charged I/O, the same active-set peak and the same result.
  StoredRelation sweep_out(&disk, layout.output, "sweep_out");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats sweep,
      RunNamed(JoinExecutor::kSweep, r.get(), s.get(), &sweep_out, options));
  EXPECT_EQ(stats.io, sweep.io);
  EXPECT_EQ(stats.Get(Metric::kMaxActiveTuples),
            sweep.Get(Metric::kSweepActivePeak));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> merged, out.ReadAll());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> swept, sweep_out.ReadAll());
  EXPECT_FALSE(merged.empty());
  EXPECT_TRUE(SameTupleMultiset(merged, swept));
}

// Keys that the other side never probes must not pin expired entries in
// the active maps' buckets: with r's and s's key domains disjoint, every
// bucket is one-sided, and r's few keys each keep a long-lived tuple live
// beside thousands of short ones that expire.
TEST(CoSweepTest, DisjointKeyDomainsKeepActiveBucketsBoundedByLiveTuples) {
  Random rng(31);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 6000, 4, 60000, 0.001), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 6000, 400, 60000, 0.001)) {
    s_tuples.push_back(S(t.value(0).AsInt64() + 100, "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  ExecOptions options;
  options.buffer_pages = 8;
  for (auto [executor, peak_metric] :
       {std::pair{JoinExecutor::kSortMerge, Metric::kMaxActiveTuples},
        std::pair{JoinExecutor::kSweep, Metric::kSweepActivePeak}}) {
    SCOPED_TRACE(JoinExecutorName(executor));
    StoredRelation out(&disk, layout.output, "out");
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats,
        RunNamed(executor, r.get(), s.get(), &out, options));
    EXPECT_EQ(stats.output_tuples, 0u);
    const double live_peak = stats.Get(peak_metric);
    EXPECT_LT(live_peak, 100.0);
    // Each map holds at most max(64, 2 x live) bucket entries.
    EXPECT_LE(stats.Get(Metric::kActiveBucketEntriesPeak),
              2 * live_peak + 2 * 64);
  }
}

// Every executor joins an empty r, an empty s, or both to zero rows.
TEST(SortMergeTest, EmptyInputs) {
  const std::vector<Tuple> some_r{T(1, "a", 0, 10), T(2, "b", 5, 20)};
  const std::vector<Tuple> some_s{S(1, "x", 5, 15), S(2, "y", 0, 30)};
  for (auto [r_tuples, s_tuples] :
       {std::pair{std::vector<Tuple>{}, some_s},
        std::pair{some_r, std::vector<Tuple>{}},
        std::pair{std::vector<Tuple>{}, std::vector<Tuple>{}}}) {
    for (JoinExecutor executor :
         {JoinExecutor::kAuto, JoinExecutor::kNestedLoop,
          JoinExecutor::kSortMerge, JoinExecutor::kIndexed,
          JoinExecutor::kPartition, JoinExecutor::kReference,
          JoinExecutor::kInMemoryRadix, JoinExecutor::kSweep}) {
      SCOPED_TRACE(std::string(JoinExecutorName(executor)) + " r=" +
                   std::to_string(r_tuples.size()) +
                   " s=" + std::to_string(s_tuples.size()));
      Disk disk;
      auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
      auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
      TEMPO_ASSERT_OK_AND_ASSIGN(
          NaturalJoinLayout layout,
          DeriveNaturalJoinLayout(r->schema(), s->schema()));
      StoredRelation out(&disk, layout.output, "out");
      ExecOptions options;
      options.buffer_pages = 8;
      TEMPO_ASSERT_OK_AND_ASSIGN(
          JoinRunStats stats,
          RunNamed(executor, r.get(), s.get(), &out, options));
      EXPECT_EQ(stats.output_tuples, 0u);
      EXPECT_EQ(out.num_tuples(), 0u);
    }
  }
}

// ---------------------------------------------------------------------
// PrepareJoinForKind validation
// ---------------------------------------------------------------------

TEST(PrepareJoinTest, RejectsWrongOutputSchema) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {}, "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  StoredRelation out(&disk, TestSchema(), "out");  // wrong schema
  EXPECT_FALSE(
      PrepareJoinForKind(r.get(), s.get(), &out, JoinKind::kInner).ok());
}

TEST(PrepareJoinTest, RejectsUnflushedInput) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {}, "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  TEMPO_ASSERT_OK(r->Append(T(1, "a", 0, 1)));
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  EXPECT_EQ(PrepareJoinForKind(r.get(), s.get(), &out, JoinKind::kInner)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// Temporal join family through the partition framework
// ---------------------------------------------------------------------

// The four family members Section 4.1 names, as the test parameter.
enum class FamilyJoin { kOverlap, kContains, kContainedIn, kEqual };

struct FamilyMember {
  TemporalPredicate predicate;
  const char* name;
};

FamilyMember MemberOf(FamilyJoin j) {
  static const FamilyMember kMembers[] = {
      {TemporalPredicate::Overlap(), "overlap"},
      {TemporalPredicate::ContainJoin(), "contains"},
      {TemporalPredicate::ContainedJoin(), "contained_in"},
      {TemporalPredicate::EqualJoin(), "equal"}};
  return kMembers[static_cast<int>(j)];
}

class PredicateJoinTest : public ::testing::TestWithParam<FamilyJoin> {};

TEST_P(PredicateJoinTest, MatchesInMemoryOracle) {
  const TemporalPredicate pred = MemberOf(GetParam()).predicate;
  Random rng(55);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 300, 20, 400, 0.3);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 300, 20, 400, 0.3)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }

  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  JoinRequest req;
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kPartition)
      .BufferPages(12)
      .Predicate(pred);
  TEMPO_ASSERT_OK(RunJoin(req, &out).status());

  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceJoin(TestSchema(), r_tuples, SSchema(), s_tuples,
                    JoinKind::kInner, pred));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, expected))
      << pred.Name() << ": got " << actual.size() << ", want "
      << expected.size();
}

INSTANTIATE_TEST_SUITE_P(
    Predicates, PredicateJoinTest,
    ::testing::Values(FamilyJoin::kOverlap, FamilyJoin::kContains,
                      FamilyJoin::kContainedIn, FamilyJoin::kEqual),
    [](const ::testing::TestParamInfo<FamilyJoin>& info) {
      return std::string(MemberOf(info.param).name);
    });

// The contain-semijoin [LM92] (the r tuples containing a key-matching s
// tuple) is the contain join's r side: (1,a) contains [4,6] with a
// matching key; (2,c) contains it but the key differs; (1,b) does not
// contain it.
TEST(ContainSemiJoinTest, KeepsContainingTuples) {
  std::vector<Tuple> r{T(1, "a", 0, 10), T(1, "b", 2, 3), T(2, "c", 0, 10)};
  std::vector<Tuple> s{S(1, "x", 4, 6)};
  Disk disk;
  auto r_rel = MakeRelation(&disk, TestSchema(), r, "r");
  auto s_rel = MakeRelation(&disk, SSchema(), s, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  JoinRequest req;
  req.From(r_rel.get(), s_rel.get())
      .Using(JoinExecutor::kPartition)
      .BufferPages(12)
      .Predicate(TemporalPredicate::ContainJoin());
  TEMPO_ASSERT_OK(RunJoin(req, &out).status());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> joined, out.ReadAll());
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].value(1).AsString(), "a");
  EXPECT_EQ(joined[0].interval(), Interval(4, 6));
}

}  // namespace
}  // namespace tempo
