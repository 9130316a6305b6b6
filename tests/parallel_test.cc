// Determinism checks over the executors: the overflow-chunk path of the
// partition join, golden output digests, and the guarantee that tracing
// is invisible — a run through an ExecContext writes the same bytes and
// charges the same I/O as a run without one, under either head model.
// Every executor phase runs on the query's own thread, so the thread
// counts these test names mention have nothing left to vary; each
// comparison pairs an untraced run with a traced one instead.

#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "core/partition_coalesce.h"
#include "core/partition_join.h"
#include "join/reference_join.h"
#include "obs/exec_context.h"
#include "service/join_request.h"
#include "test_util.h"
#include "workload/generator.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

// ---------------------------------------------------------------------
// Overflow-chunk path (satellite: overflow coverage)
// ---------------------------------------------------------------------

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"sval", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& v, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(v)}, Interval(vs, ve));
}

TEST(ParallelJoinTest, OverflowChunksMatchReferenceAcrossThreadCounts) {
  Random rng(99);
  // Wide pads make the outer partitions overflow a 1-page partition area
  // (buffer_pages=4 => reserved 3, area = 1 page payload).
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
  std::string pad(120, 'r');
  for (const Tuple& t : RandomTuples(rng, 300, 20, 600, 0.3)) {
    r_tuples.push_back(T(t.value(0).AsInt64(), pad, t.interval().start(),
                         t.interval().end()));
  }
  for (const Tuple& t : RandomTuples(rng, 250, 20, 600, 0.3)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "s", t.interval().start(),
                         t.interval().end()));
  }
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));

  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");

  PartitionJoinOptions options;
  options.buffer_pages = 4;
  options.forced_num_partitions = 2;
  ExecContext ctx;
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats,
      PartitionVtJoin(r.get(), s.get(), &out, options, &ctx));

  EXPECT_GT(stats.Get(Metric::kOverflowChunks), 0.0)
      << "workload must exercise the chunked outer-area path";
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, expected))
      << "actual=" << actual.size() << " expected=" << expected.size();
}

// ---------------------------------------------------------------------
// Determinism: tracing must be invisible in output bytes and IoStats
// ---------------------------------------------------------------------

struct RunResult {
  std::vector<Page> out_pages;
  IoStats io;
  uint64_t output_tuples = 0;
};

RunResult RunSkewedPartitionJoin(bool traced) {
  RunResult result;
  Disk disk;
  WorkloadSpec spec;
  spec.num_tuples = 2500;
  spec.num_long_lived = 500;  // long-lived tuples exercise the cache
  spec.lifespan = 50000;
  spec.distinct_keys = 100;
  spec.zipf_theta = 0.8;  // skewed keys => uneven partitions
  spec.tuple_bytes = 64;
  spec.seed = 7;
  auto r_or = GenerateRelation(&disk, spec, "r");
  spec.seed = 1007;
  auto s_gen_or = GenerateRelation(&disk, spec, "s");
  if (!r_or.ok() || !s_gen_or.ok()) {
    ADD_FAILURE() << "workload generation failed";
    return result;
  }
  std::unique_ptr<StoredRelation> r = *std::move(r_or);
  // Rename s's pad attribute so only "key" is a join attribute.
  Schema s_schema({{"key", ValueType::kInt64}, {"spad", ValueType::kString}});
  auto s = std::make_unique<StoredRelation>(&disk, s_schema, "s2");
  auto s_tuples = (*s_gen_or)->ReadAll();
  if (!s_tuples.ok()) {
    ADD_FAILURE() << s_tuples.status().ToString();
    return result;
  }
  for (const Tuple& t : *s_tuples) {
    if (!s->Append(t).ok()) return result;
  }
  if (!s->Flush().ok()) return result;
  disk.DeleteFile((*s_gen_or)->file_id()).ok();

  auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
  if (!layout.ok()) {
    ADD_FAILURE() << layout.status().ToString();
    return result;
  }
  StoredRelation out(&disk, layout->output, "out");

  JoinRequest req;
  // Small memory => several partitions.
  req.From(r.get(), s.get()).Using(JoinExecutor::kPartition).BufferPages(16);
  ExecContext ctx;
  auto stats = RunJoin(req, &out, traced ? &ctx : nullptr);
  if (!stats.ok()) {
    ADD_FAILURE() << stats.status().ToString();
    return result;
  }
  result.io = stats->io;
  result.output_tuples = stats->output_tuples;
  result.out_pages.resize(out.num_pages());
  for (uint32_t p = 0; p < out.num_pages(); ++p) {
    auto st = out.ReadPage(p, &result.out_pages[p]);
    if (!st.ok()) ADD_FAILURE() << st.ToString();
  }
  return result;
}

TEST(ParallelJoinTest, ThreadCountIsInvisibleInOutputAndIoStats) {
  RunResult serial = RunSkewedPartitionJoin(/*traced=*/false);
  ASSERT_GT(serial.output_tuples, 0u);
  ASSERT_FALSE(serial.out_pages.empty());
  RunResult traced = RunSkewedPartitionJoin(/*traced=*/true);
  EXPECT_EQ(traced.output_tuples, serial.output_tuples);
  EXPECT_TRUE(traced.io == serial.io)
      << "traced=" << traced.io.ToString()
      << " untraced=" << serial.io.ToString();
  ASSERT_EQ(traced.out_pages.size(), serial.out_pages.size());
  for (size_t p = 0; p < serial.out_pages.size(); ++p) {
    EXPECT_EQ(std::memcmp(&traced.out_pages[p], &serial.out_pages[p],
                          sizeof(Page)),
              0)
        << "output page " << p << " differs from the untraced run";
  }
}

TEST(ParallelJoinTest, SortMergeAgreesAcrossThreadCounts) {
  Random rng(5);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 500, 40, 800, 0.2);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 450, 40, 800, 0.2)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));

  IoStats serial_io;
  for (bool traced : {false, true}) {
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(
        NaturalJoinLayout layout,
        DeriveNaturalJoinLayout(TestSchema(), SSchema()));
    StoredRelation out(&disk, layout.output, "out");
    JoinRequest req;
    // 8 pages force real run formation + merges.
    req.From(r.get(), s.get()).Using(JoinExecutor::kSortMerge).BufferPages(8);
    ExecContext ctx;
    TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                               RunJoin(req, &out, traced ? &ctx : nullptr));
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
    EXPECT_TRUE(SameTupleMultiset(actual, expected)) << "traced=" << traced;
    if (!traced) {
      serial_io = stats.io;
    } else {
      EXPECT_TRUE(stats.io == serial_io)
          << "traced io=" << stats.io.ToString()
          << " untraced=" << serial_io.ToString();
    }
  }
}

// ---------------------------------------------------------------------
// Zero-copy view refactor lock: every executor must produce the same
// output bytes and charged I/O traced or not, and must actually run its
// hot loop on page-backed views.
// ---------------------------------------------------------------------

struct ExecRun {
  std::vector<Page> pages;
  IoStats io;
  uint64_t output_tuples = 0;
  double views = 0;  // decode_materializations_avoided
};

void CapturePages(StoredRelation* out, ExecRun* run) {
  run->pages.resize(out->num_pages());
  for (uint32_t p = 0; p < out->num_pages(); ++p) {
    TEMPO_ASSERT_OK(out->ReadPage(p, &run->pages[p]));
  }
}

void ExpectSameRun(const ExecRun& a, const ExecRun& b, const char* what) {
  EXPECT_EQ(a.output_tuples, b.output_tuples) << what;
  EXPECT_TRUE(a.io == b.io) << what << ": " << a.io.ToString() << " vs "
                            << b.io.ToString();
  EXPECT_EQ(a.views, b.views) << what << ": view counts diverge";
  ASSERT_EQ(a.pages.size(), b.pages.size()) << what;
  for (size_t p = 0; p < a.pages.size(); ++p) {
    EXPECT_EQ(std::memcmp(&a.pages[p], &b.pages[p], sizeof(Page)), 0)
        << what << ": output page " << p << " differs";
  }
}

TEST(ZeroCopyLockTest, AllExecutorsByteIdenticalAcrossThreadCounts) {
  Random rng(21);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 800, 30, 900, 0.25);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 700, 30, 900, 0.25)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }

  struct Executor {
    JoinExecutor executor;
    uint32_t buffer_pages;
  };
  const std::vector<Executor> executors = {
      {JoinExecutor::kNestedLoop, 8},
      {JoinExecutor::kSortMerge, 8},
      {JoinExecutor::kIndexed, 12},
      {JoinExecutor::kPartition, 8},  // several partitions + spill paths
  };

  for (const Executor& exec : executors) {
    ExecRun reference;
    for (bool traced : {false, true}) {
      Disk disk;
      auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
      auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
      TEMPO_ASSERT_OK_AND_ASSIGN(
          NaturalJoinLayout layout,
          DeriveNaturalJoinLayout(TestSchema(), SSchema()));
      StoredRelation out(&disk, layout.output, "out");
      JoinRequest req;
      req.From(r.get(), s.get())
          .Using(exec.executor)
          .BufferPages(exec.buffer_pages);
      ExecContext ctx;
      auto stats_or = RunJoin(req, &out, traced ? &ctx : nullptr);
      const char* name = JoinExecutorName(exec.executor);
      ASSERT_TRUE(stats_or.ok())
          << name << ": " << stats_or.status().ToString();
      ExecRun run;
      run.io = stats_or->io;
      run.output_tuples = stats_or->output_tuples;
      run.views = stats_or->Get(Metric::kDecodeMaterializationsAvoided);
      CapturePages(&out, &run);
      EXPECT_GT(run.views, 0.0)
          << name << " must stream views through its hot loop";
      EXPECT_GT(run.output_tuples, 0u) << name;
      if (!traced) {
        reference = std::move(run);
      } else {
        ExpectSameRun(reference, run, name);
      }
    }
  }
}

TEST(ZeroCopyLockTest, CoalesceByteIdenticalAcrossThreadCounts) {
  // Duplicate values with touching/overlapping intervals so coalescing
  // actually merges runs.
  Random rng(31);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 900; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(40));
    Chronon start = rng.UniformRange(0, 500);
    tuples.push_back(T(key, "grp" + std::to_string(key), start,
                       start + rng.UniformRange(1, 30)));
  }
  ExecRun reference;
  for (bool traced : {false, true}) {
    Disk disk;
    auto in = MakeRelation(&disk, TestSchema(), tuples, "in");
    StoredRelation out(&disk, TestSchema(), "out");
    PartitionJoinOptions o;
    o.buffer_pages = 8;
    o.forced_num_partitions = 3;  // exercise the carry-across path
    ExecContext ctx;
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats,
        PartitionCoalesce(in.get(), &out, o, traced ? &ctx : nullptr));
    ExecRun run;
    run.io = stats.io;
    run.output_tuples = stats.output_tuples;
    run.views = stats.Get(Metric::kDecodeMaterializationsAvoided);
    CapturePages(&out, &run);
    EXPECT_GT(run.views, 0.0);
    EXPECT_GT(run.output_tuples, 0u);
    EXPECT_LT(run.output_tuples, tuples.size());  // something coalesced
    if (!traced) {
      reference = std::move(run);
    } else {
      ExpectSameRun(reference, run, "coalesce");
    }
  }
}

// ---------------------------------------------------------------------
// Golden output digests: the build side of partition, nested-loop and
// indexed, and the co-sweep's active map behind sort-merge and sweep, may
// change representation, but never the bytes they write. Each case pins an
// order-dependent digest over every output page, the output cardinality
// and the charged I/O.
// ---------------------------------------------------------------------

Schema GoldenRSchema() {
  return Schema({{"key", ValueType::kInt64},
                 {"tag", ValueType::kString},
                 {"pad", ValueType::kString}});
}

Schema GoldenSSchema() {
  return Schema({{"key", ValueType::kInt64},
                 {"tag", ValueType::kString},
                 {"w", ValueType::kDouble}});
}

/// Heavily duplicated int64+string keys (a NULL tag joins a NULL tag),
/// 20% long-lived tuples, and s-side doubles including -0.0 and NULL.
void GoldenInputs(std::vector<Tuple>* r, std::vector<Tuple>* s) {
  Random rng(1994);
  auto tag = [&rng]() -> Value {
    switch (rng.Uniform(3)) {
      case 0:
        return Value(std::string("a"));
      case 1:
        return Value(std::string("bb"));
      default:
        return Value::Null();
    }
  };
  auto interval = [&rng]() {
    Chronon start = rng.UniformRange(0, 1999);
    int64_t dur = rng.Bernoulli(0.2) ? rng.UniformRange(300, 900)
                                     : rng.UniformRange(0, 3);
    return Interval(start, start + dur);
  };
  for (int i = 0; i < 2400; ++i) {
    Value key(static_cast<int64_t>(rng.Uniform(25)));
    Value t = tag();
    r->push_back(Tuple({key, t, Value(std::string(20 + i % 23, 'p'))},
                       interval()));
  }
  for (int i = 0; i < 2200; ++i) {
    Value key(static_cast<int64_t>(rng.Uniform(25)));
    Value t = tag();
    Value w = i % 7 == 0   ? Value(-0.0)
              : i % 11 == 0 ? Value::Null()
                            : Value(static_cast<double>(i) / 4);
    s->push_back(Tuple({key, t, w}, interval()));
  }
}

/// FNV-1a over the output pages in page order.
uint64_t PageDigest(StoredRelation* out) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint32_t p = 0; p < out->num_pages(); ++p) {
    Page page;
    EXPECT_TRUE(out->ReadPage(p, &page).ok());
    const auto* bytes = reinterpret_cast<const unsigned char*>(&page);
    for (size_t i = 0; i < sizeof(Page); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST(ZeroCopyLockTest, OutputPagesMatchGoldenDigests) {
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
  GoldenInputs(&r_tuples, &s_tuples);
  // The single-partition fast path gets the first 300 r tuples only.
  const std::vector<Tuple> r_small(r_tuples.begin(), r_tuples.begin() + 300);

  struct Case {
    const char* name;
    JoinExecutor executor;
    JoinKind kind;
    uint32_t buffer_pages;
    bool small_r;  // single-partition fast path
    uint64_t digest;
    uint64_t output_tuples;
    uint64_t io_ops;
    TemporalPredicate predicate = TemporalPredicate::Overlap();
  };
  // A 16-page buffer makes the partition runs overflow the partition area
  // and spill the tuple cache (asserted below); a 64-page buffer over the
  // small r takes the single-partition fast path. Sort-merge's 6-page
  // buffer evicts long-lived active tuples, so it backs up; the sweep under
  // meets takes the adjacency path and compacts its active maps.
  const std::vector<Case> cases = {
      {"partition", JoinExecutor::kPartition, JoinKind::kInner, 16, false,
       0x157c8d7198249851ull, 6946, 388},
      {"partition-fast", JoinExecutor::kPartition, JoinKind::kInner, 64,
       true, 0x402a893c895a3260ull, 896, 44},
      {"partition-left-outer", JoinExecutor::kPartition,
       JoinKind::kLeftOuter, 16, false, 0xf8a18673b0a26c40ull, 8073, 407},
      {"partition-full-outer", JoinExecutor::kPartition,
       JoinKind::kFullOuter, 16, false, 0x2955a1d4dcf78cc1ull, 9290, 665},
      {"partition-anti", JoinExecutor::kPartition, JoinKind::kAnti, 16,
       false, 0x2c11069bc5cfd822ull, 1127, 278},
      {"partition-fast-left-outer", JoinExecutor::kPartition,
       JoinKind::kLeftOuter, 64, true, 0x1c63925ef05b8a4cull, 1041, 47},
      {"nested-loop", JoinExecutor::kNestedLoop, JoinKind::kInner, 16, false,
       0xad210c6d23a6ea7dull, 6946, 235},
      {"indexed", JoinExecutor::kIndexed, JoinKind::kInner, 16, false,
       0x2fc059c0fd55347eull, 6946, 1057},
      {"sort-merge", JoinExecutor::kSortMerge, JoinKind::kInner, 6, false,
       0x6e47e2fceb61a0abull, 6946, 559},
      {"sweep", JoinExecutor::kSweep, JoinKind::kInner, 16, false,
       0xa216c4463445725aull, 6946, 445},
      {"sweep-meets", JoinExecutor::kSweep, JoinKind::kInner, 16, false,
       0x4cd6ab84c1da8f31ull, 42, 317,
       TemporalPredicate::Exactly(AllenRelation::kMeets)},
  };
  for (const Case& c : cases) {
    Disk disk;
    auto r = MakeRelation(&disk, GoldenRSchema(),
                          c.small_r ? r_small : r_tuples, "r");
    auto s = MakeRelation(&disk, GoldenSSchema(), s_tuples, "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(
        NaturalJoinLayout layout,
        DeriveNaturalJoinLayout(GoldenRSchema(), GoldenSSchema()));
    StoredRelation out(
        &disk, c.kind == JoinKind::kAnti ? GoldenRSchema() : layout.output,
        "out");
    JoinRequest req;
    req.From(r.get(), s.get())
        .Using(c.executor)
        .Kind(c.kind)
        .BufferPages(c.buffer_pages)
        .Predicate(c.predicate);
    ExecContext ctx;
    auto stats = RunJoin(req, &out, &ctx);
    ASSERT_TRUE(stats.ok()) << c.name << ": " << stats.status().ToString();
    const std::string what = c.name;
    if (c.executor == JoinExecutor::kPartition) {
      if (c.small_r) {
        EXPECT_EQ(stats->Get(Metric::kPartitions), 1.0) << what;
      } else {
        EXPECT_GT(stats->Get(Metric::kOverflowChunks), 0.0) << what;
        EXPECT_GT(stats->Get(Metric::kCachePagesSpilled), 0.0) << what;
      }
    }
    if (c.executor == JoinExecutor::kSortMerge) {
      EXPECT_GT(stats->Get(Metric::kBackupPageReads), 0.0) << what;
    }
    if (c.predicate.NeedsAdjacency()) {
      EXPECT_GE(stats->Get(Metric::kSweepCompactions), 2.0) << what;
    }
    EXPECT_EQ(PageDigest(&out), c.digest) << what;
    EXPECT_EQ(stats->output_tuples, c.output_tuples) << what;
    EXPECT_EQ(stats->io.total_ops(), c.io_ops) << what;
  }
}

// Under the single-head model an access is sequential only if it continues
// the one head's last position, so charged I/O depends on the interleaving
// across files. Grace partitioning and sort run formation run on the
// query's thread in the paper's order, so the counts are the same traced
// or not under this model too.
TEST(ParallelJoinTest, SingleHeadIoIsThreadInvariant) {
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
  GoldenInputs(&r_tuples, &s_tuples);

  struct Case {
    const char* name;
    JoinExecutor executor;
    uint32_t buffer_pages;
  };
  const std::vector<Case> cases = {
      {"partition", JoinExecutor::kPartition, 16},
      {"sort-merge", JoinExecutor::kSortMerge, 6},
  };
  for (const Case& c : cases) {
    IoStats serial_io;
    uint64_t serial_digest = 0;
    for (bool traced : {false, true}) {
      Disk disk;
      auto r = MakeRelation(&disk, GoldenRSchema(), r_tuples, "r");
      auto s = MakeRelation(&disk, GoldenSSchema(), s_tuples, "s");
      disk.accountant().set_head_model(HeadModel::kSingleHead);
      TEMPO_ASSERT_OK_AND_ASSIGN(
          NaturalJoinLayout layout,
          DeriveNaturalJoinLayout(GoldenRSchema(), GoldenSSchema()));
      StoredRelation out(&disk, layout.output, "out");
      JoinRequest req;
      req.From(r.get(), s.get())
          .Using(c.executor)
          .BufferPages(c.buffer_pages);
      ExecContext ctx;
      auto stats = RunJoin(req, &out, traced ? &ctx : nullptr);
      ASSERT_TRUE(stats.ok()) << c.name << ": " << stats.status().ToString();
      if (c.executor == JoinExecutor::kPartition) {
        EXPECT_GT(stats->Get(Metric::kPartitions), 1.0)
            << "the run must take the Grace path";
      }
      const uint64_t digest = PageDigest(&out);
      if (!traced) {
        serial_io = stats->io;
        serial_digest = digest;
      } else {
        EXPECT_TRUE(stats->io == serial_io)
            << c.name << " traced: " << stats->io.ToString()
            << " vs untraced " << serial_io.ToString();
        EXPECT_EQ(digest, serial_digest) << c.name << " traced";
      }
    }
  }
}

// ---------------------------------------------------------------------
// DecodePageAppend (satellite: arena-reuse decode variant)
// ---------------------------------------------------------------------

TEST(DecodePageAppendTest, AppendsIntoArenaAndReportsCount) {
  Disk disk;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 40; ++i) tuples.push_back(T(i, "v", i, i + 2));
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "rel");
  ASSERT_GE(rel->num_pages(), 1u);

  std::vector<Tuple> arena;
  size_t total = 0;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    Page page;
    TEMPO_ASSERT_OK(rel->ReadPage(p, &page));
    TEMPO_ASSERT_OK_AND_ASSIGN(
        size_t added,
        StoredRelation::DecodePageAppend(TestSchema(), page, &arena));
    EXPECT_GT(added, 0u);
    total += added;
    EXPECT_EQ(arena.size(), total);  // appended, not replaced
  }
  EXPECT_EQ(total, tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(arena[i].value(0).AsInt64(), tuples[i].value(0).AsInt64());
  }
}

}  // namespace
}  // namespace tempo
