// Robustness: storage faults injected mid-operation must surface as
// Status errors from every executor — no crashes, no CHECK failures, no
// silent partial results mistaken for success — and corrupted records
// must never be trusted.

#include <gtest/gtest.h>

#include <functional>

#include "core/partition_coalesce.h"
#include "core/planner.h"
#include "incremental/materialized_view.h"
#include "join/external_sort.h"
#include "query/sequenced_exec.h"
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

struct FaultFixture {
  FaultFixture() {
    Random rng(13);
    r_tuples = RandomTuples(rng, 1500, 30, 800, 0.3);
    for (const Tuple& t : RandomTuples(rng, 1400, 30, 800, 0.3)) {
      s_tuples.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
    }
    r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    auto l = DeriveNaturalJoinLayout(TestSchema(), SSchema());
    layout = *l;
  }

  Disk disk;
  std::vector<Tuple> r_tuples, s_tuples;
  std::unique_ptr<StoredRelation> r, s;
  NaturalJoinLayout layout;
};

// Every executor, with a fault at several points in its execution: the
// call must return a non-OK status mentioning the injected fault (or
// complete successfully if the fault lands after its last I/O). A failed
// call must also leave no temporary file behind: the disk holds the inputs
// and whatever reached `out`.
class ExecutorFaultTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorFaultTest, AllExecutorsPropagateInjectedFaults) {
  const uint64_t fail_after = GetParam();
  struct Run {
    JoinExecutor executor;
    JoinKind kind;
  };
  for (const Run& run : {Run{JoinExecutor::kNestedLoop, JoinKind::kInner},
                         Run{JoinExecutor::kSortMerge, JoinKind::kInner},
                         Run{JoinExecutor::kSweep, JoinKind::kInner},
                         Run{JoinExecutor::kIndexed, JoinKind::kInner},
                         Run{JoinExecutor::kPartition, JoinKind::kInner},
                         Run{JoinExecutor::kPartition, JoinKind::kLeftOuter}}) {
    const std::string label = std::string(JoinExecutorName(run.executor)) +
                              "/" + JoinKindName(run.kind);
    FaultFixture f;
    StoredRelation out(&f.disk, f.layout.output, "out");
    const uint64_t input_pages = f.disk.TotalPages();
    JoinRequest req;
    req.From(f.r.get(), f.s.get())
        .Using(run.executor)
        .Kind(run.kind)
        .BufferPages(8);
    f.disk.InjectFaultAfter(fail_after);
    StatusOr<JoinRunStats> stats = RunJoin(req, &out);
    f.disk.ClearFault();
    if (!stats.ok()) {
      EXPECT_EQ(stats.status().code(), StatusCode::kInternal)
          << label << ": " << stats.status().ToString();
      EXPECT_NE(stats.status().message().find("injected"),
                std::string_view::npos);
      EXPECT_EQ(f.disk.TotalPages(), input_pages + out.num_pages())
          << label << " leaked temp pages";
    }
    // Either way the disk must stay usable afterwards.
    StoredRelation out2(&f.disk, f.layout.output, "out2");
    TEMPO_EXPECT_OK(RunJoin(req.Using(JoinExecutor::kNestedLoop)
                                .Kind(JoinKind::kInner),
                            &out2)
                        .status());
  }
}

INSTANTIATE_TEST_SUITE_P(FaultPoints, ExecutorFaultTest,
                         ::testing::Values(0, 1, 7, 50, 300, 2000));

// Injects a fault after every 7th page access, from the first access until
// `call` gets through. Whatever `call` creates must be gone when it
// returns, failed or not: the disk then holds exactly the pages it held
// before the sweep. Returns the number of failed calls.
int SweepFaults(Disk* disk, const std::function<Status()>& call) {
  const uint64_t input_pages = disk->TotalPages();
  int failures = 0;
  for (uint64_t fail_after = 0;; fail_after += 7) {
    disk->InjectFaultAfter(fail_after);
    Status st = call();
    disk->ClearFault();
    EXPECT_EQ(disk->TotalPages(), input_pages)
        << "fault after " << fail_after << ": " << st.ToString();
    if (st.ok()) return failures;
    EXPECT_NE(st.message().find("injected"), std::string_view::npos)
        << st.ToString();
    if (++failures > 1000) {
      ADD_FAILURE() << "call never succeeded";
      return failures;
    }
  }
}

// A sequenced select -> join pipeline materializes the selection as an
// intermediate, and the partition join writes Grace partitions and cache
// spills; a failure at any point must delete all of them. The call drops
// a successful result on return, so it leaves nothing behind either.
TEST(FaultSweepTest, SequencedQueryLeavesNoTempFiles) {
  FaultFixture f;
  QueryPlan plan = QueryPlan::Join(
      QueryPlan::Scan(f.r.get())
          .Select({"key", CompareOp::kLt, Value(int64_t{20})}),
      QueryPlan::Scan(f.s.get()));
  QueryOptions options;
  options.executor = JoinExecutor::kPartition;
  options.join.buffer_pages = 12;
  auto query = [&] {
    return RunSequencedQuery(plan, &f.disk, options).status();
  };
  EXPECT_GT(SweepFaults(&f.disk, query), 10);
}

// The sequenced difference runs as an anti join, so a select -> difference
// pipeline writes the selection, Grace partitions and cache spills; a
// failure at any point must delete all of them.
TEST(FaultSweepTest, SequencedDifferenceLeavesNoTempFiles) {
  FaultFixture f;
  QueryPlan plan = QueryPlan::Difference(
      QueryPlan::Scan(f.r.get()),
      QueryPlan::Scan(f.r.get())
          .Select({"key", CompareOp::kLt, Value(int64_t{20})}));
  QueryOptions options;
  options.join.buffer_pages = 12;
  auto query = [&] {
    return RunSequencedQuery(plan, &f.disk, options).status();
  };
  EXPECT_GT(SweepFaults(&f.disk, query), 10);
}

// The build-side executors probe in groups and emit a group's matches only
// after matching all of them, so a fault can fail an output flush in the
// middle of a group. Every such run must return the injected error and
// leave no Grace partition, cache spill, sort run or output page behind.
TEST(FaultSweepTest, GroupedProbeExecutorsLeaveNoTempFiles) {
  for (JoinExecutor executor :
       {JoinExecutor::kPartition, JoinExecutor::kNestedLoop,
        JoinExecutor::kIndexed, JoinExecutor::kInMemoryRadix}) {
    FaultFixture f;
    JoinRequest req;
    req.From(f.r.get(), f.s.get())
        .Using(executor)
        .BufferPages(16)
        .RadixBudgetBytes(uint64_t{4} << 20);
    auto join = [&]() -> Status {
      TempRelation out(new StoredRelation(&f.disk, f.layout.output, "out"));
      return RunJoin(req, out.get()).status();
    };
    EXPECT_GT(SweepFaults(&f.disk, join), 3) << JoinExecutorName(executor);
  }
}

// Sort-merge and the sweep write sort runs; the partition executor's
// outer and anti kinds also emit uncovered stretches, and full-outer runs
// a second, swapped pass. Every failed run must return the injected error
// and leave no sort run, Grace partition, cache spill or output page
// behind.
TEST(FaultSweepTest, SortedAndOuterExecutorsLeaveNoTempFiles) {
  struct Run {
    JoinExecutor executor;
    JoinKind kind;
  };
  for (const Run& run : {Run{JoinExecutor::kSortMerge, JoinKind::kInner},
                         Run{JoinExecutor::kSweep, JoinKind::kInner},
                         Run{JoinExecutor::kPartition, JoinKind::kLeftOuter},
                         Run{JoinExecutor::kPartition, JoinKind::kFullOuter},
                         Run{JoinExecutor::kPartition, JoinKind::kAnti}}) {
    const std::string label = std::string(JoinExecutorName(run.executor)) +
                              "/" + JoinKindName(run.kind);
    FaultFixture f;
    const Schema out_schema =
        run.kind == JoinKind::kAnti ? TestSchema() : f.layout.output;
    JoinRequest req;
    req.From(f.r.get(), f.s.get())
        .Using(run.executor)
        .Kind(run.kind)
        .BufferPages(16);
    auto join = [&]() -> Status {
      TempRelation out(new StoredRelation(&f.disk, out_schema, "out"));
      return RunJoin(req, out.get()).status();
    };
    EXPECT_GT(SweepFaults(&f.disk, join), 3) << label;
  }
}

// kAuto draws the partition executor's sample before it chooses. With a
// 6-page buffer partition still wins and runs on the planner's
// partitioning; with 4 pages the sample prices the overflow chunks above
// sort-merge and the run switches. A fault in the planner's sample or in
// either run must return the injected error and leave no sort run, Grace
// partition, cache spill or output page behind.
TEST(FaultSweepTest, PlannedRunsLeaveNoTempFiles) {
  struct Case {
    uint32_t buffer_pages;
    JoinAlgorithm planned;
  };
  for (const Case& c : {Case{6, JoinAlgorithm::kPartition},
                        Case{4, JoinAlgorithm::kSortMerge}}) {
    Disk disk;
    WorkloadSpec spec;
    spec.num_tuples = 2048;
    spec.num_long_lived = 40;
    spec.distinct_keys = 204;
    spec.tuple_bytes = 128;
    spec.seed = 3;
    auto r = GenerateRelation(&disk, spec, "r").value();
    spec.seed = 4;
    auto s = GenerateRelation(&disk, spec, "s").value();
    const Schema out_schema =
        DeriveNaturalJoinLayout(r->schema(), s->schema())->output;
    JoinRequest req;
    req.From(r.get(), s.get()).BufferPages(c.buffer_pages);
    double planned = -1.0;
    auto join = [&]() -> Status {
      TempRelation out(new StoredRelation(&disk, out_schema, "out"));
      StatusOr<JoinRunStats> stats = RunJoin(req, out.get());
      if (stats.ok()) planned = stats->Get(Metric::kPlannedAlgorithm);
      return stats.status();
    };
    EXPECT_GT(SweepFaults(&disk, join), 10) << c.buffer_pages << " pages";
    EXPECT_EQ(planned, static_cast<double>(static_cast<int>(c.planned)))
        << c.buffer_pages << " pages";
  }
}

TEST(FaultSweepTest, PartitionCoalesceLeavesNoTempFiles) {
  FaultFixture f;
  const uint64_t input_pages = f.disk.TotalPages();
  PartitionJoinOptions options;
  options.buffer_pages = 12;
  auto coalesce = [&]() -> Status {
    TempRelation out(new StoredRelation(&f.disk, TestSchema(), "out"));
    Status st = PartitionCoalesce(f.r.get(), out.get(), options).status();
    if (!st.ok()) {
      EXPECT_EQ(f.disk.TotalPages(), input_pages + out->num_pages())
          << st.ToString();
    }
    return st;
  };
  EXPECT_GT(SweepFaults(&f.disk, coalesce), 3);
}

// Every r and s tuple stamped [5, 5]: r's sample collapses to one
// partition, which 8 buffer pages join in several chunks (and the full
// outer's swapped pass likewise over s). A failure at any chunk must
// return the injected error and leave no cache generation or output page
// behind.
TEST(FaultSweepTest, OnePartitionLoopLeavesNoTempFiles) {
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kFullOuter}) {
    Disk disk;
    std::vector<Tuple> r_tuples;
    std::vector<Tuple> s_tuples;
    for (int64_t i = 0; i < 2000; ++i) {
      r_tuples.push_back(T(i % 400, "r" + std::to_string(i), 5, 5));
      s_tuples.push_back(
          Tuple({Value(i % 500), Value("s" + std::to_string(i))},
                Interval(5, 5)));
    }
    auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    const Schema out_schema =
        DeriveNaturalJoinLayout(TestSchema(), SSchema())->output;
    JoinRequest req;
    req.From(r.get(), s.get())
        .Using(JoinExecutor::kPartition)
        .Kind(kind)
        .BufferPages(8);
    double chunks = -1.0;
    auto join = [&]() -> Status {
      TempRelation out(new StoredRelation(&disk, out_schema, "out"));
      StatusOr<JoinRunStats> stats = RunJoin(req, out.get());
      if (stats.ok()) chunks = stats->Get(Metric::kOverflowChunks);
      return stats.status();
    };
    EXPECT_GT(SweepFaults(&disk, join), 10) << JoinKindName(kind);
    EXPECT_GE(chunks, 2.0) << JoinKindName(kind);
  }
}

// The view's build samples r, writes every partition, cache and result
// file, and recomputes each partition's result; a failure at any point
// must delete all of them with the view. A built view is deleted with the
// lambda's scope too, so the disk ends as it began.
TEST(FaultSweepTest, ViewBuildLeavesNoTempFiles) {
  FaultFixture f;
  size_t partitions = 0;
  auto build = [&]() -> Status {
    MaterializedVtJoinView view(&f.disk, "view");
    TEMPO_RETURN_IF_ERROR(view.Build(f.r.get(), f.s.get(), 8));
    partitions = view.num_partitions();
    return Status::OK();
  };
  EXPECT_GT(SweepFaults(&f.disk, build), 10);
  EXPECT_GT(partitions, 1u);
}

TEST(FaultTest, FaultAfterCompletionIsHarmless) {
  FaultFixture f;
  StoredRelation out(&f.disk, f.layout.output, "out");
  JoinRequest req;
  req.From(f.r.get(), f.s.get())
      .Using(JoinExecutor::kNestedLoop)
      .BufferPages(16);
  f.disk.InjectFaultAfter(100000000);  // far beyond any I/O this run does
  TEMPO_EXPECT_OK(RunJoin(req, &out).status());
  f.disk.ClearFault();
}

TEST(FaultTest, ExternalSortPropagates) {
  FaultFixture f;
  f.disk.InjectFaultAfter(5);
  auto sorted = ExternalSortByVs(f.r.get(), 6, "sorted");
  EXPECT_FALSE(sorted.ok());
  f.disk.ClearFault();
}

TEST(FaultTest, ViewBuildPropagates) {
  FaultFixture f;
  MaterializedVtJoinView view(&f.disk, "view");
  f.disk.InjectFaultAfter(10);
  EXPECT_FALSE(view.Build(f.r.get(), f.s.get(), 8).ok());
  f.disk.ClearFault();
}

TEST(FaultTest, PlannerExecutePropagates) {
  FaultFixture f;
  StoredRelation out(&f.disk, f.layout.output, "out");
  JoinRequest req;
  req.From(f.r.get(), f.s.get()).BufferPages(8);
  f.disk.InjectFaultAfter(3);
  EXPECT_FALSE(RunJoin(req, &out).ok());
  f.disk.ClearFault();
}

// Record-parser fuzz: arbitrary bytes must never crash TupleView::Make —
// every input either round-trips as a valid record or yields a Corruption
// status. The suite's name predates TupleView::Make.
class DeserializeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeserializeFuzzTest, ArbitraryBytesNeverCrash) {
  Random rng(GetParam());
  Schema schema({{"a", ValueType::kInt64},
                 {"b", ValueType::kString},
                 {"c", ValueType::kDouble}});
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.Uniform(200);
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    auto result = ::tempo::testing::ParseRecord(schema, bytes);
    if (result.ok()) {
      // If it parsed, re-serialization must reproduce the input.
      std::string back;
      result->SerializeTo(schema, &back);
      EXPECT_EQ(back, bytes);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeserializeFuzzTest,
                         ::testing::Range<uint64_t>(0, 10));

// Truncation fuzz over real records of every schema shape.
TEST(DeserializeFuzzTest, TruncatedRealRecordsAlwaysRejected) {
  Schema schema({{"a", ValueType::kInt64},
                 {"b", ValueType::kString},
                 {"c", ValueType::kDouble},
                 {"d", ValueType::kString}});
  Tuple t({Value(int64_t{-7}), Value("hello"), Value(2.5), Value("")},
          Interval(-3, 999));
  std::string buf;
  t.SerializeTo(schema, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    auto result = TupleView::Make(schema.layout(), buf.data(), cut);
    EXPECT_FALSE(result.ok()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace tempo
