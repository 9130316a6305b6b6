// Tests for the in-memory columnar radix fast path: byte-identical output
// pages and identical charged IoStats vs the reference join, one hash
// shared by many rows, NULL keys, long-lived rows
// and non-default predicates, degenerate inputs, the budget-driven
// fallback, and the TEMPO_RADIX_THRESHOLD_MB knob; plus the
// ColumnExtractor that feeds it (amortised growth, corrupt-page rollback).

#include <cmath>
#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/radix_join.h"
#include "join/reference_join.h"
#include "obs/explain.h"
#include "relation/column_extract.h"
#include "service/join_request.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"dept", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& dept, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(dept)}, Interval(vs, ve));
}

std::vector<Tuple> ToS(const std::vector<Tuple>& tuples) {
  std::vector<Tuple> out;
  out.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    out.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
  }
  return out;
}

struct ExecRun {
  std::vector<Page> pages;
  IoStats io;
  uint64_t output_tuples = 0;
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
  ASSERT_EQ(a.pages.size(), b.pages.size()) << what;
  for (size_t p = 0; p < a.pages.size(); ++p) {
    EXPECT_EQ(std::memcmp(&a.pages[p], &b.pages[p], sizeof(Page)), 0)
        << what << ": output page " << p << " differs";
  }
}

/// The reference run: the oracle's result tuples appended in its
/// r-outer/s-inner emission order, with the charged I/O of the two
/// sequential input scans that fed it — exactly what the radix path
/// charges (its only I/O is one page scan per input).
ExecRun ReferenceRun(Disk* disk, StoredRelation* r, StoredRelation* s,
                     const Schema& out_schema) {
  ExecRun run;
  disk->accountant().Reset();
  auto r_tuples = r->ReadAll();
  auto s_tuples = s->ReadAll();
  EXPECT_TRUE(r_tuples.ok() && s_tuples.ok());
  run.io = disk->accountant().stats();
  auto expected =
      ReferenceValidTimeJoin(r->schema(), *r_tuples, s->schema(), *s_tuples);
  EXPECT_TRUE(expected.ok());
  StoredRelation out(disk, out_schema, "ref.out");
  EXPECT_TRUE(out.SetCharged(false).ok());
  EXPECT_TRUE(out.AppendAll(*expected).ok());
  run.output_tuples = expected->size();
  CapturePages(&out, &run);
  return run;
}

TEST(RadixJoinTest, ByteIdenticalAndIoIdenticalToReferenceAcrossThreads) {
  Disk disk;
  Random rng(11);
  auto r =
      MakeRelation(&disk, TestSchema(), RandomTuples(rng, 900, 40, 800, 0.2), "r");
  auto s =
      MakeRelation(&disk, SSchema(), ToS(RandomTuples(rng, 800, 40, 800, 0.2)), "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  ExecRun reference = ReferenceRun(&disk, r.get(), s.get(), layout.output);
  ASSERT_GT(reference.output_tuples, 0u);

  StoredRelation out(&disk, layout.output, "radix.out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  disk.accountant().Reset();
  JoinRequest req;
  // 4096 pages = a 16 MiB budget: everything fits.
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kInMemoryRadix)
      .BufferPages(4096);
  ExecContext ctx;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out, &ctx));
  ExecRun run;
  run.io = stats.io;
  run.output_tuples = stats.output_tuples;
  CapturePages(&out, &run);
  ExpectSameRun(reference, run, "radix");
  EXPECT_GT(stats.Get(Metric::kRadixActFootprintBytes),
            stats.Get(Metric::kRadixEstFootprintBytes));
}

TEST(RadixJoinTest, SkewedKeysOverflowOneBucket) {
  // Every tuple carries the same key: all s rows land in one slot of the
  // grouping (one occupied bucket), and every r row walks all of them —
  // the probe must stay correct (and byte-identical) on that one long
  // slot. Each side has just over 256 KiB of column state.
  const int rows = static_cast<int>((256 * 1024) / kColumnRowBytes) + 1;
  Disk disk;
  Random rng(13);
  std::vector<Tuple> r_tuples, s_tuples;
  for (int i = 0; i < rows; ++i) {
    Chronon a = rng.UniformRange(0, rows);
    r_tuples.push_back(T(7, "r" + std::to_string(i), a, a + 2));
    Chronon b = rng.UniformRange(0, rows);
    s_tuples.push_back(S(7, "s" + std::to_string(i), b, b + 2));
  }
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  ExecRun reference = ReferenceRun(&disk, r.get(), s.get(), layout.output);
  ASSERT_GT(reference.output_tuples, 0u);

  StoredRelation out(&disk, layout.output, "skew.out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  disk.accountant().Reset();
  JoinRequest req;
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kInMemoryRadix)
      .BufferPages(4096);
  ExecContext ctx;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out, &ctx));
  EXPECT_GE(stats.Get(Metric::kRadixPasses), 1.0);
  EXPECT_EQ(stats.Get(Metric::kRadixBuckets), 1.0);  // all keys collide
  ExecRun run;
  run.io = stats.io;
  run.output_tuples = stats.output_tuples;
  CapturePages(&out, &run);
  ExpectSameRun(reference, run, "skew");
}

TEST(RadixJoinTest, EmptySidesProduceEmptyOutput) {
  Disk disk;
  Random rng(17);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 50, 5, 100, 0.0), "r");
  auto s_empty = MakeRelation(&disk, SSchema(), {}, "s_empty");
  auto r_empty = MakeRelation(&disk, TestSchema(), {}, "r_empty");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  auto radix = [](StoredRelation* r, StoredRelation* s, StoredRelation* out) {
    JoinRequest req;
    req.From(r, s).Using(JoinExecutor::kInMemoryRadix).BufferPages(1024);
    return RunJoin(req, out);
  };
  {
    StoredRelation out(&disk, layout.output, "out1");
    TEMPO_ASSERT_OK(out.SetCharged(false));
    TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                               radix(r.get(), s_empty.get(), &out));
    EXPECT_EQ(stats.output_tuples, 0u);
    EXPECT_EQ(out.num_tuples(), 0u);
  }
  {
    StoredRelation out(&disk, layout.output, "out2");
    TEMPO_ASSERT_OK(out.SetCharged(false));
    auto s = MakeRelation(&disk, SSchema(), ToS(RandomTuples(rng, 50, 5, 100, 0.0)), "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                               radix(r_empty.get(), s.get(), &out));
    EXPECT_EQ(stats.output_tuples, 0u);
  }
  {
    StoredRelation out(&disk, layout.output, "out3");
    TEMPO_ASSERT_OK(out.SetCharged(false));
    TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                               radix(r_empty.get(), s_empty.get(), &out));
    EXPECT_EQ(stats.output_tuples, 0u);
  }
}

TEST(RadixJoinTest, AllNullKeysJoinUnderNullEqualsNull) {
  // NULL == NULL in this system's join semantics; the key-hash columns
  // must preserve that (TupleView::HashAttrs hashes NULLs canonically), so
  // all-NULL sides degenerate to an interval-overlap cross product.
  Disk disk;
  std::vector<Tuple> r_tuples, s_tuples;
  for (int i = 0; i < 40; ++i) {
    r_tuples.push_back(Tuple({Value::Null(), Value("r" + std::to_string(i))},
                             Interval(i, i + 5)));
    s_tuples.push_back(Tuple({Value::Null(), Value("s" + std::to_string(i))},
                             Interval(i + 2, i + 6)));
  }
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  ExecRun reference = ReferenceRun(&disk, r.get(), s.get(), layout.output);
  ASSERT_GT(reference.output_tuples, 0u);

  StoredRelation out(&disk, layout.output, "null.out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  disk.accountant().Reset();
  JoinRequest req;
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kInMemoryRadix)
      .BufferPages(1024);
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out));
  ExecRun run;
  run.io = stats.io;
  run.output_tuples = stats.output_tuples;
  CapturePages(&out, &run);
  ExpectSameRun(reference, run, "all-null keys");
}

/// Rows that stress the ordered pass: half share key 7 (one hash, so one
/// slot of the grouping holds them all), a quarter carry a NULL key, the
/// rest spread over 40 keys; every fifth row is long-lived (it spans
/// almost the whole lifespan), the others last at most 50 chronons.
std::vector<Tuple> StressTuples(Random& rng, int n, const std::string& tag) {
  std::vector<Tuple> out;
  for (int i = 0; i < n; ++i) {
    const int64_t pick = rng.UniformRange(0, 3);
    Value key = pick <= 1 ? Value(int64_t{7})
                : pick == 2 ? Value::Null()
                            : Value(rng.UniformRange(0, 39));
    Chronon vs, ve;
    if (i % 5 == 0) {
      vs = rng.UniformRange(0, 100);
      ve = 10000 - rng.UniformRange(0, 100);
    } else {
      vs = rng.UniformRange(0, 10000);
      ve = vs + rng.UniformRange(0, 50);
    }
    out.push_back(Tuple({std::move(key), Value(tag + std::to_string(i))},
                        Interval(vs, ve)));
  }
  return out;
}

TEST(RadixJoinTest, OrderedPassMatchesReferenceOnSharedHashNullKeysLongLived) {
  // The ordered pass emits r rows in input order and each one's s matches
  // in ascending s order, with no sort: its pages must equal the oracle's
  // byte for byte, under the default predicate and
  // under asymmetric shared-chronon predicates (tested on (s, r) through
  // the converse, so a wrong operand order would show).
  Disk disk;
  Random rng(23);
  auto r = MakeRelation(&disk, TestSchema(), StressTuples(rng, 600, "r"), "r");
  auto s = MakeRelation(&disk, SSchema(), StressTuples(rng, 500, "s"), "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  for (const TemporalPredicate& predicate :
       {TemporalPredicate::Overlap(), TemporalPredicate::ContainJoin(),
        TemporalPredicate::ContainedJoin(),
        TemporalPredicate::Exactly(AllenRelation::kOverlaps)}) {
    ExecRun reference;
    disk.accountant().Reset();
    auto r_tuples = r->ReadAll();
    auto s_tuples = s->ReadAll();
    ASSERT_TRUE(r_tuples.ok() && s_tuples.ok());
    reference.io = disk.accountant().stats();
    TEMPO_ASSERT_OK_AND_ASSIGN(
        std::vector<Tuple> expected,
        ReferenceTemporalJoin(r->schema(), *r_tuples, s->schema(), *s_tuples,
                              predicate));
    reference.output_tuples = expected.size();
    ASSERT_GT(reference.output_tuples, 0u) << predicate.Name();
    StoredRelation ref_out(&disk, layout.output, "ref.out");
    TEMPO_ASSERT_OK(ref_out.SetCharged(false));
    TEMPO_ASSERT_OK(ref_out.AppendAll(expected));
    CapturePages(&ref_out, &reference);

    const std::string what = predicate.Name();
    StoredRelation out(&disk, layout.output, "radix.out");
    TEMPO_ASSERT_OK(out.SetCharged(false));
    disk.accountant().Reset();
    JoinRequest req;
    req.From(r.get(), s.get())
        .Using(JoinExecutor::kInMemoryRadix)
        .Predicate(predicate)
        .BufferPages(4096);
    ExecContext ctx;
    TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out, &ctx));
    ExecRun run;
    run.io = stats.io;
    run.output_tuples = stats.output_tuples;
    CapturePages(&out, &run);
    ExpectSameRun(reference, run, what.c_str());
    EXPECT_EQ(stats.Get(Metric::kRadixPasses), 1.0) << what;
    EXPECT_EQ(stats.Get(Metric::kRadixRowsRouted), 500.0) << what;
    EXPECT_FALSE(stats.Has(Metric::kMorselsDispatched)) << what;
  }
}

TEST(RadixJoinTest, BudgetExceededMidExtractReturnsResourceExhausted) {
  Disk disk;
  Random rng(19);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 2000, 50, 900, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), ToS(RandomTuples(rng, 2000, 50, 900, 0.1)), "s");
  ASSERT_GT(r->num_pages(), 1u);
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  JoinRequest req;
  // A one-page budget dies mid-extract.
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kInMemoryRadix)
      .RadixBudgetBytes(kPageSize);
  StatusOr<JoinRunStats> stats = RunJoin(req, &out);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out.num_tuples(), 0u);  // nothing was emitted before the abort
}

TEST(RadixJoinTest, ExecuteFallsBackToPagedGraceWhenBudgetExceeded) {
  // The planner's footprint estimate counts page bytes only; the real
  // footprint adds per-row column/view state. A budget wedged between the
  // two admits the radix plan, then forces the mid-extract fallback.
  Disk disk;
  Random rng(23);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 1200, 40, 700, 0.15);
  std::vector<Tuple> s_tuples = ToS(RandomTuples(rng, 1100, 40, 700, 0.15));
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));

  ExecOptions options;
  options.buffer_pages = 256;
  options.radix_budget_bytes =
      EstimateRadixFootprintBytes(r->num_pages(), s->num_pages()) + 8;

  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  EXPECT_EQ(plan.algorithm, JoinAlgorithm::kInMemoryRadix);

  JoinRequest req;
  req.From(r.get(), s.get());
  req.options = options;
  ExecContext ctx;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out, &ctx));
  EXPECT_EQ(stats.Get(Metric::kPlannedAlgorithm), 3.0);
  EXPECT_EQ(stats.Get(Metric::kRadixFallback), 1.0);

  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, expected));

  const std::string explain = ExplainAnalyze(ctx, ExplainOptions{});
  EXPECT_NE(explain.find("radix fallback"), std::string::npos) << explain;
  EXPECT_NE(explain.find("paged-grace"), std::string::npos) << explain;
}

TEST(RadixJoinTest, ExplainRendersPhysicalPathAndRadixSpans) {
  Disk disk;
  Random rng(29);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 400, 20, 400, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), ToS(RandomTuples(rng, 350, 20, 400, 0.1)), "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  JoinRequest req;
  req.From(r.get(), s.get()).BufferPages(2048);
  ExecContext ctx;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out, &ctx));
  EXPECT_EQ(stats.Get(Metric::kPlannedAlgorithm), 3.0);
  const std::string explain = ExplainAnalyze(ctx, ExplainOptions{});
  EXPECT_NE(explain.find("physical path: in-memory-radix"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("radix_extract"), std::string::npos) << explain;
  EXPECT_NE(explain.find("radix_partition"), std::string::npos) << explain;
  EXPECT_NE(explain.find("radix_probe"), std::string::npos) << explain;
  EXPECT_NE(explain.find("budget"), std::string::npos) << explain;
}

TEST(RadixJoinTest, BudgetKnobPrecedenceAndStrictParsing) {
  ExecOptions options;
  options.buffer_pages = 10;  // derived default: 10 pages = 40,960 B
  const uint64_t derived = 10ull * kPageSize;

  unsetenv("TEMPO_RADIX_THRESHOLD_MB");
  EXPECT_EQ(ResolveRadixBudgetBytes(options), derived);

  setenv("TEMPO_RADIX_THRESHOLD_MB", "8", 1);
  EXPECT_EQ(ResolveRadixBudgetBytes(options), 8ull << 20);

  // The explicit field wins over the env knob.
  options.radix_budget_bytes = 123456;
  EXPECT_EQ(ResolveRadixBudgetBytes(options), 123456u);
  options.radix_budget_bytes = 0;

  // Strict parsing: trailing garbage, zero and non-numeric values are
  // rejected (with a warning) and the derived default is used.
  for (const char* bad : {"16x", "8 ", "0", "-3", "banana", ""}) {
    setenv("TEMPO_RADIX_THRESHOLD_MB", bad, 1);
    EXPECT_EQ(ResolveRadixBudgetBytes(options), derived)
        << "value: \"" << bad << "\"";
  }
  unsetenv("TEMPO_RADIX_THRESHOLD_MB");
}

// ---------------------------------------------------------------------
// ColumnExtractor
// ---------------------------------------------------------------------

/// A page of TestSchema records with keys first_key, first_key + 1, ...,
/// filled until the next record would not fit.
Page FullPage(int64_t first_key) {
  const Schema schema = TestSchema();
  Page page;
  for (int64_t key = first_key;; ++key) {
    std::string record;
    T(key, "x", key, key + 1).SerializeTo(schema, &record);
    if (!page.AddRecord(record).has_value()) return page;
  }
}

TEST(ColumnExtractorTest, ArraysGrowGeometricallyAcrossPages) {
  const Schema schema = TestSchema();
  const std::vector<size_t> key_attrs = {0};
  ColumnExtractor extractor(&schema, &key_attrs);
  const Page page = FullPage(0);
  constexpr int kPages = 1000;
  int view_growths = 0;
  int hash_growths = 0;
  for (int p = 0; p < kPages; ++p) {
    const size_t view_cap = extractor.views().capacity();
    const size_t hash_cap = extractor.columns().key_hashes.capacity();
    TEMPO_ASSERT_OK_AND_ASSIGN(size_t added, extractor.AddPage(page));
    ASSERT_EQ(added, page.num_records());
    view_growths += extractor.views().capacity() != view_cap;
    hash_growths += extractor.columns().key_hashes.capacity() != hash_cap;
  }
  const size_t rows = extractor.num_rows();
  ASSERT_EQ(rows, static_cast<size_t>(kPages) * page.num_records());
  // Reserving exactly per page would reallocate on every one of the 1,000
  // pages; geometric growth reallocates O(log rows) times.
  const double bound = 2 * std::log2(static_cast<double>(rows)) + 4;
  EXPECT_LE(view_growths, bound);
  EXPECT_LE(hash_growths, bound);
  EXPECT_EQ(extractor.footprint_bytes(),
            uint64_t{kPages} * kPageSize + rows * kColumnRowBytes);
}

TEST(ColumnExtractorTest, CorruptRecordRollsBackThePage) {
  const Schema schema = TestSchema();
  const std::vector<size_t> key_attrs = {0};
  ColumnExtractor extractor(&schema, &key_attrs);
  constexpr int kGoodPages = 3;
  for (int p = 0; p < kGoodPages; ++p) {
    TEMPO_ASSERT_OK(extractor.AddPage(FullPage(1000 * p)).status());
  }
  const size_t rows_before = extractor.num_rows();
  const size_t pages_before = extractor.num_pages();

  // Page k: good records around one record with an inverted interval.
  Page bad;
  for (int64_t key = 0; key < 10; ++key) {
    std::string record;
    T(key, "x", key, key + 1).SerializeTo(schema, &record);
    if (key == 5) {
      const uint64_t late_start = 1000;  // start > end: invalid interval
      std::memcpy(record.data(), &late_start, 8);
    }
    ASSERT_TRUE(bad.AddRecord(record).has_value());
  }
  auto added = extractor.AddPage(bad);
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(extractor.num_rows(), rows_before);
  EXPECT_EQ(extractor.num_pages(), pages_before);
  EXPECT_EQ(extractor.views().size(), rows_before);
  const JoinColumns& cols = extractor.columns();
  EXPECT_EQ(cols.key_hashes.size(), rows_before);
  EXPECT_EQ(cols.starts.size(), rows_before);
  EXPECT_EQ(cols.ends.size(), rows_before);
  EXPECT_EQ(cols.num_rows(), rows_before);

  // The next good page continues at row ordinal rows_before.
  const Page next = FullPage(5000);
  TEMPO_ASSERT_OK_AND_ASSIGN(size_t n, extractor.AddPage(next));
  ASSERT_EQ(n, next.num_records());
  ASSERT_EQ(extractor.num_rows(), rows_before + n);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = rows_before + i;
    const int64_t key = 5000 + static_cast<int64_t>(i);
    EXPECT_EQ(cols.starts[row], key);
    EXPECT_EQ(cols.ends[row], key + 1);
    EXPECT_EQ(extractor.views()[row].Int64At(0), key);
    EXPECT_EQ(cols.key_hashes[row],
              T(key, "x", key, key + 1).HashAttrs(key_attrs));
  }
}

}  // namespace
}  // namespace tempo
