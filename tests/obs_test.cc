// Tests for the observability layer: the typed metrics registry, the
// phase-scoped tracer, the ExplainAnalyze renderer, and the guarantees
// the layer makes — span-tree I/O totals equal the run's charged IoStats
// for every executor, two runs render identical I/O columns, and a null
// ExecContext leaves execution byte-identical.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/partition_coalesce.h"
#include "core/partition_join.h"
#include "incremental/materialized_view.h"
#include "obs/explain.h"
#include "query/sequenced_exec.h"
#include "service/join_request.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"sval", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& v, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(v)}, Interval(vs, ve));
}

// Deterministic workload big enough to force real partitioning (wide pads
// push r past the partition area at buffer_pages=4).
struct JoinInputs {
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
};

JoinInputs PaddedInputs() {
  JoinInputs in;
  Random rng(7);
  std::string pad(120, 'r');
  for (const Tuple& t : RandomTuples(rng, 300, 20, 600, 0.3)) {
    in.r_tuples.push_back(
        T(t.value(0).AsInt64(), pad, t.interval().start(), t.interval().end()));
  }
  for (const Tuple& t : RandomTuples(rng, 250, 20, 600, 0.3)) {
    in.s_tuples.push_back(S(t.value(0).AsInt64(), "s", t.interval().start(),
                            t.interval().end()));
  }
  return in;
}

struct PartitionRun {
  JoinRunStats stats;
  std::vector<Tuple> out_tuples;
  uint32_t out_pages = 0;
};

PartitionRun RunPaddedJoin(const JoinInputs& in, ExecContext* ctx,
                           JoinExecutor executor = JoinExecutor::kPartition) {
  PartitionRun run;
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  auto layout_or = DeriveNaturalJoinLayout(TestSchema(), SSchema());
  EXPECT_TRUE(layout_or.ok());
  StoredRelation out(&disk, layout_or.value().output, "out");

  JoinRequest req;
  // 8 pages: the indexed join's minimum; every other executor runs at 4.
  req.From(r.get(), s.get())
      .Using(executor)
      .BufferPages(executor == JoinExecutor::kIndexed ? 8 : 4)
      .RadixBudgetBytes(uint64_t{1} << 30);
  auto stats_or = RunJoin(req, &out, ctx);
  EXPECT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  if (!stats_or.ok()) return run;
  run.stats = std::move(stats_or).value();
  auto tuples_or = out.ReadAll();
  EXPECT_TRUE(tuples_or.ok());
  if (tuples_or.ok()) run.out_tuples = std::move(tuples_or).value();
  run.out_pages = out.num_pages();
  return run;
}

/// The span-tree table only — ExplainAnalyze output up to the metrics
/// section, which is left out of the run-vs-run comparison.
std::string TableOnly(const std::string& rendered) {
  size_t pos = rendered.find("\nmetrics:");
  return pos == std::string::npos ? rendered : rendered.substr(0, pos);
}

// ---------------------------------------------------------------------
// Span tree: totals, phases, estimates
// ---------------------------------------------------------------------

TEST(SpanTreeTest, InclusiveIoEqualsRunIoStats) {
  JoinInputs in = PaddedInputs();
  // Every phase of every executor's run executes under a span, so the
  // tree's exclusive I/O sums exactly to the run's charged IoStats — the
  // renderer's TOTAL row is the run, not an approximation of it.
  for (JoinExecutor executor :
       {JoinExecutor::kAuto, JoinExecutor::kNestedLoop,
        JoinExecutor::kSortMerge, JoinExecutor::kIndexed,
        JoinExecutor::kReference, JoinExecutor::kInMemoryRadix,
        JoinExecutor::kSweep}) {
    ExecContext ctx;
    PartitionRun run = RunPaddedJoin(in, &ctx, executor);
    EXPECT_GT(run.stats.io.total_ops(), 0u) << JoinExecutorName(executor);
    EXPECT_TRUE(ctx.tracer().TotalIo() == run.stats.io)
        << JoinExecutorName(executor)
        << ": tree: " << ctx.tracer().TotalIo().ToString()
        << " run: " << run.stats.io.ToString();
  }

  ExecContext ctx;
  PartitionRun run = RunPaddedJoin(in, &ctx);
  EXPECT_TRUE(ctx.tracer().TotalIo() == run.stats.io)
      << "tree: " << ctx.tracer().TotalIo().ToString()
      << " run: " << run.stats.io.ToString();

  const SpanNode& root = ctx.tracer().root();
  const SpanNode* join_root = root.FindPhase(Phase::kPartitionJoin);
  ASSERT_NE(join_root, nullptr);
  for (Phase p : {Phase::kChooseIntervals, Phase::kSampling,
                  Phase::kPartitionR, Phase::kPartitionS,
                  Phase::kJoinPartitions}) {
    EXPECT_NE(join_root->FindPhase(p), nullptr)
        << "missing phase " << PhaseName(p);
  }
  // Sampling nests under chooseIntervals, as in the paper's Figure 2.
  const SpanNode* choose = join_root->FindPhase(Phase::kChooseIntervals);
  ASSERT_NE(choose, nullptr);
  EXPECT_NE(choose->FindPhase(Phase::kSampling), nullptr);

  // The optimizer's estimates are attached to the phases they predict.
  EXPECT_GE(join_root->estimated_cost, 0.0);
  EXPECT_GE(join_root->FindPhase(Phase::kSampling)->estimated_cost, 0.0);
  EXPECT_GE(join_root->FindPhase(Phase::kJoinPartitions)->estimated_cost, 0.0);
}

TEST(SpanTreeTest, ParallelRunAttributesSameIoToSamePhases) {
  JoinInputs in = PaddedInputs();
  ExecContext serial_ctx;
  PartitionRun serial = RunPaddedJoin(in, &serial_ctx);
  ExecContext parallel_ctx;
  PartitionRun parallel = RunPaddedJoin(in, &parallel_ctx);

  EXPECT_TRUE(serial.stats.io == parallel.stats.io);
  EXPECT_TRUE(serial_ctx.tracer().TotalIo() == parallel_ctx.tracer().TotalIo());

  // Per-phase inclusive I/O repeats too, not just the total: every phase
  // runs on the query's thread in the paper's order, and each span's I/O
  // is a delta of the run's accountant.
  const SpanNode& sroot = serial_ctx.tracer().root();
  const SpanNode& proot = parallel_ctx.tracer().root();
  for (Phase p : {Phase::kChooseIntervals, Phase::kSampling,
                  Phase::kPartitionR, Phase::kPartitionS,
                  Phase::kJoinPartitions}) {
    const SpanNode* sn = sroot.FindPhase(p);
    const SpanNode* pn = proot.FindPhase(p);
    ASSERT_NE(sn, nullptr) << PhaseName(p);
    ASSERT_NE(pn, nullptr) << PhaseName(p);
    EXPECT_TRUE(sn->InclusiveIo() == pn->InclusiveIo())
        << PhaseName(p) << ": serial " << sn->InclusiveIo().ToString()
        << " parallel " << pn->InclusiveIo().ToString();
  }
}

TEST(SpanTreeTest, NullContextIsByteIdentical) {
  JoinInputs in = PaddedInputs();
  PartitionRun plain = RunPaddedJoin(in, nullptr);
  ExecContext ctx;
  PartitionRun traced = RunPaddedJoin(in, &ctx);

  EXPECT_TRUE(plain.stats.io == traced.stats.io)
      << "plain: " << plain.stats.io.ToString()
      << " traced: " << traced.stats.io.ToString();
  EXPECT_EQ(plain.stats.output_tuples, traced.stats.output_tuples);
  EXPECT_EQ(plain.out_pages, traced.out_pages);
  ASSERT_EQ(plain.out_tuples.size(), traced.out_tuples.size());
  for (size_t i = 0; i < plain.out_tuples.size(); ++i) {
    EXPECT_TRUE(plain.out_tuples[i] == traced.out_tuples[i]) << "tuple " << i;
  }
}

// A sequenced pipeline (select, two joins, a difference) charges all of
// its I/O inside its span tree: the tree's total equals the accountant's
// delta around the whole run.
TEST(SpanTreeTest, SequencedPipelineTotalIoEqualsAccountantDelta) {
  JoinInputs in = PaddedInputs();
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  const AttrPredicate low_keys{"key", CompareOp::kLt, Value(int64_t{10})};
  QueryPlan plan = QueryPlan::Difference(
      QueryPlan::Join(QueryPlan::Scan(r.get()), QueryPlan::Scan(s.get())),
      QueryPlan::Join(QueryPlan::Scan(r.get()).Select(low_keys),
                      QueryPlan::Scan(s.get())));
  QueryOptions options;
  options.join.buffer_pages = 4;

  ExecContext ctx;
  const IoStats before = disk.accountant().stats();
  TEMPO_ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      RunSequencedQuery(plan, &disk, options, &ctx, "pipe"));
  const IoStats charged = disk.accountant().stats() - before;

  EXPECT_GT(result.output_tuples, 0u);
  EXPECT_GT(charged.total_ops(), 0u);
  EXPECT_TRUE(ctx.tracer().TotalIo() == charged)
      << "tree: " << ctx.tracer().TotalIo().ToString()
      << " accountant: " << charged.ToString();
  for (Phase p : {Phase::kQuery, Phase::kQuerySelect, Phase::kQueryJoin,
                  Phase::kQueryDifference}) {
    EXPECT_NE(ctx.tracer().root().FindPhase(p), nullptr) << PhaseName(p);
  }
}

// ---------------------------------------------------------------------
// ExplainAnalyze rendering
// ---------------------------------------------------------------------

// Two runs of the same join render the same I/O columns: every phase
// runs on the query's thread, and each span's I/O is an accountant delta.
TEST(ExplainTest, SerialAndFourThreadRunsRenderIdenticalIoColumns) {
  JoinInputs in = PaddedInputs();
  ExecContext serial_ctx;
  RunPaddedJoin(in, &serial_ctx);
  ExecContext parallel_ctx;
  RunPaddedJoin(in, &parallel_ctx);

  ExplainOptions opts;
  opts.include_timing = false;  // wall-clock is the one nondeterministic axis
  std::string serial = ExplainAnalyze(serial_ctx, opts);
  std::string parallel = ExplainAnalyze(parallel_ctx, opts);
  EXPECT_EQ(TableOnly(serial), TableOnly(parallel));
}

TEST(ExplainTest, MatchesGoldenSpanTree) {
  JoinInputs in = PaddedInputs();
  ExecContext ctx;
  RunPaddedJoin(in, &ctx);

  ExplainOptions opts;
  opts.include_timing = false;
  // Golden output. Deterministic because the data is seeded, the per-file
  // head model classifies I/O independently of scheduling, and timing
  // columns are disabled. Regenerate by printing TableOnly(...) if the
  // executor's I/O pattern legitimately changes.
  const std::string expected =
      "phase              est cost  act cost  random  seq\n"
      "partition join         88.0     146.0      13   81\n"
      "  chooseIntervals         -      16.0       1   11\n"
      "    sampling           16.0      16.0       1   11\n"
      "  partitioning r          -      40.0       4   20\n"
      "  partitioning s          -      22.0       4    2\n"
      "  joinPartitions       72.0      68.0       4   48\n"
      "TOTAL                     -     146.0      13   81\n";
  EXPECT_EQ(TableOnly(ExplainAnalyze(ctx, opts)), expected);
}

TEST(ExplainTest, AutoJoinShowsPlanPhaseAndPlannedCost) {
  JoinInputs in = PaddedInputs();
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  auto layout_or = DeriveNaturalJoinLayout(TestSchema(), SSchema());
  ASSERT_TRUE(layout_or.ok());
  StoredRelation out(&disk, layout_or.value().output, "out");

  ExecContext ctx;
  JoinRequest req;
  req.From(r.get(), s.get()).BufferPages(4);
  auto stats_or = RunJoin(req, &out, &ctx);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();

  EXPECT_NE(ctx.tracer().root().FindPhase(Phase::kPlan), nullptr);
  std::string rendered = ExplainAnalyze(ctx);
  EXPECT_NE(rendered.find("plan"), std::string::npos);
  EXPECT_NE(rendered.find("TOTAL"), std::string::npos);
  EXPECT_NE(rendered.find("planned_cost"), std::string::npos);
  EXPECT_NE(rendered.find("planned_algorithm"), std::string::npos);
  // The planner's estimate for the chosen algorithm appears on its root
  // span (est cost column is not all "-").
  EXPECT_TRUE(stats_or.value().Has(Metric::kPlannedCost));
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(MetricsTest, RegistryDistinguishesUnsetFromZero) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.Has(Metric::kPartitions));
  EXPECT_EQ(reg.Get(Metric::kPartitions), 0.0);
  reg.Set(Metric::kPartitions, 0.0);
  EXPECT_TRUE(reg.Has(Metric::kPartitions));
  reg.Add(Metric::kSamples, 2.0);
  reg.Add(Metric::kSamples, 3.0);
  EXPECT_EQ(reg.Get(Metric::kSamples), 5.0);
  EXPECT_EQ(reg.size(), 2u);

  MetricsRegistry other;
  other.Set(Metric::kSamples, 7.0);
  other.Set(Metric::kOverflowChunks, 1.0);
  reg.Merge(other);
  EXPECT_EQ(reg.Get(Metric::kSamples), 7.0);
  EXPECT_TRUE(reg.Has(Metric::kOverflowChunks));
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsTest, DescribeDocumentsEveryDeclaredMetric) {
  std::string table = MetricsRegistry::Describe();
  for (const MetricDef& def : AllMetricDefs()) {
    EXPECT_NE(table.find(def.name), std::string::npos) << def.name;
    EXPECT_NE(table.find(def.doc), std::string::npos) << def.name;
  }
  EXPECT_NE(table.find("| Metric | Unit | Emitted by | Description |"),
            std::string::npos);
}

TEST(MetricsTest, FindMetricByNameRoundTrips) {
  for (const MetricDef& def : AllMetricDefs()) {
    const MetricDef* found = FindMetricByName(def.name);
    ASSERT_NE(found, nullptr) << def.name;
    EXPECT_EQ(found->id, def.id);
  }
  EXPECT_EQ(FindMetricByName("no_such_metric"), nullptr);
}

/// Every metric an executor emits must round-trip through the declaration
/// table: its def is findable by name and maps back to the same id. (The
/// typed registry makes undeclared metrics unrepresentable; this guards
/// the name table staying consistent with the enum.)
void ExpectAllDeclared(const JoinRunStats& stats, const std::string& who) {
  size_t emitted = 0;
  stats.metrics.ForEach([&](const MetricDef& def, double value) {
    ++emitted;
    const MetricDef* found = FindMetricByName(def.name);
    ASSERT_NE(found, nullptr) << who << ": metric '" << def.name
                              << "' missing from the name table";
    EXPECT_EQ(found->id, def.id) << who;
    EXPECT_EQ(stats.metrics.Get(def.id), value) << who << ": " << def.name;
  });
  EXPECT_GT(emitted, 0u) << who;
}

TEST(MetricsTest, NoExecutorEmitsUndeclaredMetrics) {
  JoinInputs in = PaddedInputs();
  auto layout_or = DeriveNaturalJoinLayout(TestSchema(), SSchema());
  ASSERT_TRUE(layout_or.ok());
  const Schema out_schema = layout_or.value().output;

  for (JoinExecutor executor :
       {JoinExecutor::kNestedLoop, JoinExecutor::kSortMerge,
        JoinExecutor::kIndexed, JoinExecutor::kAuto}) {
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
    StoredRelation out(&disk, out_schema, "out");
    JoinRequest req;
    // 8 pages: the indexed join's minimum.
    req.From(r.get(), s.get()).Using(executor).BufferPages(8);
    auto stats_or = RunJoin(req, &out);
    const char* name = JoinExecutorName(executor);
    ASSERT_TRUE(stats_or.ok()) << name << ": "
                               << stats_or.status().ToString();
    ExpectAllDeclared(stats_or.value(), name);
  }

  {
    // Partition join: Grace and joinPartitions run on the query's thread,
    // so it emits no morsel metrics.
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
    StoredRelation out(&disk, out_schema, "out");
    JoinRequest req;
    req.From(r.get(), s.get()).Using(JoinExecutor::kPartition).BufferPages(4);
    ExecContext pctx;
    auto stats_or = RunJoin(req, &out, &pctx);
    ASSERT_TRUE(stats_or.ok());
    ExpectAllDeclared(stats_or.value(), "partition");
  }

  {
    // Radix join: its probe is one serial ordered pass, so like every
    // executor it emits no morsel metrics.
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
    StoredRelation out(&disk, out_schema, "out");
    JoinRequest req;
    req.From(r.get(), s.get())
        .Using(JoinExecutor::kInMemoryRadix)
        .BufferPages(4)
        .RadixBudgetBytes(uint64_t{1} << 30);
    ExecContext rctx;
    auto stats_or = RunJoin(req, &out, &rctx);
    ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
    EXPECT_FALSE(stats_or->Has(Metric::kMorselsDispatched));
    EXPECT_FALSE(stats_or->Has(Metric::kParallelEfficiency));
    ExpectAllDeclared(stats_or.value(), "in-memory-radix");
  }

  {
    // Coalesce (same registry, different operator family).
    Disk disk;
    auto in_rel = MakeRelation(&disk, TestSchema(), in.r_tuples, "cin");
    StoredRelation out(&disk, TestSchema(), "cout");
    PartitionJoinOptions options;
    options.buffer_pages = 4;
    auto stats_or = PartitionCoalesce(in_rel.get(), &out, options, nullptr);
    ASSERT_TRUE(stats_or.ok());
    ExpectAllDeclared(stats_or.value(), "coalesce");
  }
}

// No executor phase dispatches morsels: the radix join (one serial
// ordered pass) and the paged executors (sort-merge, the partition join's
// Grace path) record no morsel metric.
TEST(MetricsTest, MorselDurationHistogramDescribesTheRadixProbeOnly) {
  JoinInputs in = PaddedInputs();
  auto layout_or = DeriveNaturalJoinLayout(TestSchema(), SSchema());
  ASSERT_TRUE(layout_or.ok());
  const Schema out_schema = layout_or.value().output;

  for (JoinExecutor executor :
       {JoinExecutor::kInMemoryRadix, JoinExecutor::kSortMerge,
        JoinExecutor::kPartition}) {
    const char* name = JoinExecutorName(executor);
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
    StoredRelation out(&disk, out_schema, "out");
    JoinRequest req;
    req.From(r.get(), s.get())
        .Using(executor)
        .BufferPages(4)
        .RadixBudgetBytes(uint64_t{1} << 30);
    ExecContext ctx;
    auto stats_or = RunJoin(req, &out, &ctx);
    ASSERT_TRUE(stats_or.ok()) << name << ": "
                               << stats_or.status().ToString();
    const JoinRunStats& stats = stats_or.value();
    if (executor == JoinExecutor::kInMemoryRadix) {
      EXPECT_GT(stats.output_tuples, 0u) << name;
    }
    if (executor == JoinExecutor::kPartition) {
      EXPECT_GT(stats.Get(Metric::kPartitions), 1.0)
          << "the run must take the Grace path";
    }
    EXPECT_FALSE(stats.Has(Metric::kMorselsDispatched)) << name;
    EXPECT_FALSE(stats.Has(Metric::kParallelEfficiency)) << name;
  }
}

// ---------------------------------------------------------------------
// ResultWriter (satellite: failed appends must not count)
// ---------------------------------------------------------------------

TEST(ResultWriterTest, FailedAppendIsNotCounted) {
  Disk disk;
  StoredRelation out(&disk, TestSchema(), "out");
  ResultWriter writer(&out);

  // A record larger than one page cannot be appended; the writer must
  // surface the error and leave the count untouched.
  Tuple oversized = T(1, std::string(1 << 16, 'x'), 0, 1);
  Status st = writer.EmitAssembled(oversized);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(writer.count(), 0u);

  TEMPO_EXPECT_OK(writer.EmitAssembled(T(2, "ok", 0, 1)));
  EXPECT_EQ(writer.count(), 1u);
  TEMPO_EXPECT_OK(writer.Finish());
  EXPECT_EQ(out.num_tuples(), 1u);
}

/// Serializes `t` under `schema` into `*bytes` and returns a validated
/// view over them.
TupleView ViewOf(const Schema& schema, const Tuple& t, std::string* bytes) {
  bytes->clear();
  t.SerializeTo(schema, bytes);
  auto view = TupleView::Make(schema.layout(), bytes->data(), bytes->size());
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return *view;
}

TEST(ResultWriterTest, ViewEmitIsByteIdenticalToOwningTuplePath) {
  // Ten output attributes (a 2-byte NULL bitmap). The shared keys sit at
  // different positions in r and s, and each side mixes all three types.
  const Schema r_schema({{"k1", ValueType::kInt64},
                         {"b1", ValueType::kDouble},
                         {"k2", ValueType::kString},
                         {"b2", ValueType::kString},
                         {"b3", ValueType::kInt64},
                         {"b4", ValueType::kString}});
  const Schema s_schema({{"c1", ValueType::kString},
                         {"k2", ValueType::kString},
                         {"c2", ValueType::kDouble},
                         {"k1", ValueType::kInt64},
                         {"c3", ValueType::kInt64},
                         {"c4", ValueType::kString}});
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r_schema, s_schema));
  ASSERT_GE(layout.output.num_attributes(), 9u);

  const Value kNull = Value::Null();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Tuple> rs = {
      Tuple({Value(int64_t{1}), Value(-0.0), Value("key"), Value(""),
             Value(int64_t{-7}), Value("tail")},
            Interval(0, 10)),
      // NULL key; every later string is reached by a walk.
      Tuple({kNull, Value(nan), Value("k"), Value("after-null"),
             Value(int64_t{3}), Value("")},
            Interval(2, 12)),
      // NULL in an r-rest position before a string.
      Tuple({Value(int64_t{2}), kNull, Value(""), kNull, Value(int64_t{0}),
             Value("last")},
            Interval(5, 5)),
  };
  const std::vector<Tuple> ss = {
      Tuple({Value("c"), Value("key"), Value(1.5), Value(int64_t{1}),
             Value(int64_t{9}), Value("s-tail")},
            Interval(0, 20)),
      // NULLs in s-rest positions, with strings after them.
      Tuple({kNull, Value("k"), kNull, Value(int64_t{2}), kNull,
             Value("after-nulls")},
            Interval(4, 8)),
      Tuple({Value(""), kNull, Value(-0.0), kNull, Value(int64_t{-1}),
             Value("")},
            Interval(5, 6)),
  };

  Disk disk;
  StoredRelation out(&disk, layout.output, "out");
  ResultWriter writer(&out);
  std::vector<std::string> expected;
  std::string r_bytes;
  std::string s_bytes;
  for (const Tuple& x : rs) {
    for (const Tuple& y : ss) {
      const Interval overlap = *Overlap(x.interval(), y.interval());
      const TupleView xv = ViewOf(r_schema, x, &r_bytes);
      const TupleView yv = ViewOf(s_schema, y, &s_bytes);
      TEMPO_ASSERT_OK(writer.Emit(layout, xv, yv, overlap));
      expected.emplace_back();
      MakeJoinTuple(layout, x, y, overlap)
          .SerializeTo(layout.output, &expected.back());
    }
  }
  TEMPO_ASSERT_OK(writer.Finish());
  EXPECT_EQ(writer.count(), expected.size());

  std::vector<std::string> written;
  Page page;
  for (uint32_t p = 0; p < out.num_pages(); ++p) {
    TEMPO_ASSERT_OK(out.ReadPage(p, &page));
    for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
      written.emplace_back(page.GetRecord(slot));
    }
  }
  ASSERT_EQ(written.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(written[i], expected[i]) << "result " << i;
  }
}

TEST(ResultWriterTest, FailedViewEmitIsNotCounted) {
  // The views borrow their schemas' layouts, so the schemas outlive them.
  const Schema r_schema = TestSchema();
  const Schema s_schema = SSchema();
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r_schema, s_schema));
  Disk disk;
  StoredRelation out(&disk, layout.output, "out");
  ResultWriter writer(&out);

  // Each input record fits a page; their join result does not.
  std::string r_bytes;
  std::string s_bytes;
  const std::string half(kMaxRecordSize / 2 + 8, 'x');
  TupleView xv = ViewOf(r_schema, T(1, half, 0, 1), &r_bytes);
  TupleView yv = ViewOf(s_schema, S(1, half, 0, 1), &s_bytes);
  EXPECT_FALSE(writer.Emit(layout, xv, yv, Interval(0, 1)).ok());
  EXPECT_EQ(writer.count(), 0u);

  xv = ViewOf(r_schema, T(2, "ok", 0, 1), &r_bytes);
  yv = ViewOf(s_schema, S(2, "ok", 0, 1), &s_bytes);
  TEMPO_EXPECT_OK(writer.Emit(layout, xv, yv, Interval(0, 1)));
  EXPECT_EQ(writer.count(), 1u);
  TEMPO_EXPECT_OK(writer.Finish());
  EXPECT_EQ(out.num_tuples(), 1u);
}

// ---------------------------------------------------------------------
// Incremental view maintenance under tracing
// ---------------------------------------------------------------------

TEST(ViewTraceTest, BuildAndMaintenanceRunUnderSpans) {
  // Wide pads force a multi-partition plan, so the build actually samples.
  Random rng(13);
  std::string pad(120, 'r');
  std::vector<Tuple> r_tuples;
  for (const Tuple& t : RandomTuples(rng, 300, 20, 400, 0.3)) {
    r_tuples.push_back(
        T(t.value(0).AsInt64(), pad, t.interval().start(), t.interval().end()));
  }
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 120, 20, 400, 0.3)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "s", t.interval().start(),
                         t.interval().end()));
  }
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");

  ExecContext ctx;
  MaterializedVtJoinView view(&disk, "view");
  IoStats before = disk.accountant().stats();
  TEMPO_ASSERT_OK(view.Build(r.get(), s.get(), /*buffer_pages=*/8,
                             /*seed=*/42, &ctx));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto ins,
                             view.InsertR(T(3, "new", 10, 20), &ctx));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto del,
                             view.DeleteR(T(3, "new", 10, 20), &ctx));
  IoStats charged = disk.accountant().stats() - before;
  (void)ins;
  (void)del;

  const SpanNode& root = ctx.tracer().root();
  EXPECT_NE(root.FindPhase(Phase::kViewBuild), nullptr);
  EXPECT_NE(root.FindPhase(Phase::kViewInsert), nullptr);
  EXPECT_NE(root.FindPhase(Phase::kViewDelete), nullptr);
  // Build plans via the sampler, so its sampling I/O nests under the
  // build span.
  EXPECT_NE(root.FindPhase(Phase::kViewBuild)->FindPhase(Phase::kSampling),
            nullptr);
  // All charged I/O between the snapshots happened inside the three
  // spans (build, insert, delete) — the tree accounts for every page.
  EXPECT_TRUE(ctx.tracer().TotalIo() == charged)
      << "tree: " << ctx.tracer().TotalIo().ToString()
      << " charged: " << charged.ToString();
}

}  // namespace
}  // namespace tempo
