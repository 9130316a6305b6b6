// Tests for the endpoint-sweep executor and the TemporalPredicate
// taxonomy it serves: hand-derived golden rows for each predicate class
// (overlap narrowing, endpoint equality, adjacency), byte identity of the
// sweep's output pages and charged IoStats traced and untraced and against
// the extended reference oracle for every predicate in the taxonomy,
// predicate parity of every shared-chronon executor against the oracle,
// and ValidateExecOptions rejections naming executor, kind and predicate.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "join/reference_join.h"
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

Tuple J(int64_t key, const std::string& name, const std::string& sval,
        Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(name), Value(sval)}, Interval(vs, ve));
}

Schema OutSchema() {
  auto layout = DeriveNaturalJoinLayout(TestSchema(), SSchema());
  return layout->output;
}

// ---------------------------------------------------------------------
// Golden hand-derived rows, one per predicate class
// ---------------------------------------------------------------------
//
// r (key, name):             s (key, sval):
//   (1, a) [0, 10]             (1, x) [11, 20]   a meets x (10+1 == 11)
//   (2, b) [5, 8]              (1, y) [0, 10]    a equals y
//                              (1, z) [2, 6]     a contains z
//                              (2, w) [5, 12]    b starts w
//
// All relations below are ClassifyAllen(r.interval, s.interval) — the
// argument order every executor uses.

std::vector<Tuple> GoldenR() {
  return {T(1, "a", 0, 10), T(2, "b", 5, 8)};
}

std::vector<Tuple> GoldenS() {
  return {S(1, "x", 11, 20), S(1, "y", 0, 10), S(1, "z", 2, 6),
          S(2, "w", 5, 12)};
}

std::vector<Tuple> RunSweep(const std::vector<Tuple>& r_tuples,
                            const std::vector<Tuple>& s_tuples,
                            TemporalPredicate pred) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  StoredRelation out(&disk, OutSchema(), "out");
  JoinRequest req;
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kSweep)
      .Predicate(pred)
      .BufferPages(8);
  auto stats = RunJoin(req, &out);
  if (!stats.ok()) {
    ADD_FAILURE() << pred.Name() << ": " << stats.status().ToString();
    return {};
  }
  EXPECT_EQ(stats->Get(Metric::kJoinPredicateMask),
            static_cast<double>(pred.mask()))
      << pred.Name();
  auto actual = out.ReadAll();
  if (!actual.ok()) {
    ADD_FAILURE() << actual.status().ToString();
    return {};
  }
  return *std::move(actual);
}

TEST(SweepGoldenTest, MeetsEmitsAdjacentPairWithSpanStamp) {
  // a [0,10] meets x [11,20]: no shared chronon, so the result stamp is
  // the span of the two intervals.
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(GoldenR(), GoldenS(),
               TemporalPredicate::Exactly(AllenRelation::kMeets)),
      {J(1, "a", "x", 0, 20)}));
}

TEST(SweepGoldenTest, MetByIsEmptyOnTheGoldenData) {
  // No s tuple ends exactly one chronon before its key partner starts.
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(GoldenR(), GoldenS(),
               TemporalPredicate::Exactly(AllenRelation::kMetBy)),
      {}));
}

TEST(SweepGoldenTest, MetByFindsReversedAdjacency) {
  // Swap the adjacency direction: s ends one chronon before r starts.
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep({T(1, "a", 11, 20)}, {S(1, "x", 0, 10)},
               TemporalPredicate::Exactly(AllenRelation::kMetBy)),
      {J(1, "a", "x", 0, 20)}));
}

TEST(SweepGoldenTest, EqualsEmitsOnlyTheIdenticalInterval) {
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(GoldenR(), GoldenS(), TemporalPredicate::EqualJoin()),
      {J(1, "a", "y", 0, 10)}));
}

TEST(SweepGoldenTest, ContainsEmitsStrictlyNestedPartner) {
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(GoldenR(), GoldenS(),
               TemporalPredicate::Exactly(AllenRelation::kContains)),
      {J(1, "a", "z", 2, 6)}));
}

TEST(SweepGoldenTest, ContainJoinIsContainsPlusEndpointSharers) {
  // contain-join = {finished-by, contains, equals, started-by}: picks up
  // both the strict nesting (a ⊃ z) and the equality (a = y).
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(GoldenR(), GoldenS(), TemporalPredicate::ContainJoin()),
      {J(1, "a", "y", 0, 10), J(1, "a", "z", 2, 6)}));
}

TEST(SweepGoldenTest, StartsEmitsProperPrefix) {
  // b [5,8] is a proper prefix of w [5,12]; the stamp is the overlap.
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(GoldenR(), GoldenS(),
               TemporalPredicate::Exactly(AllenRelation::kStarts)),
      {J(2, "b", "w", 5, 8)}));
}

TEST(SweepGoldenTest, DefaultOverlapMatchesEveryChrononSharer) {
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(GoldenR(), GoldenS(), TemporalPredicate::Overlap()),
      {J(1, "a", "y", 0, 10), J(1, "a", "z", 2, 6), J(2, "b", "w", 5, 8)}));
}

TEST(SweepGoldenTest, AdjacencyDisjunctionUnionsBothDirections) {
  std::vector<Tuple> r = {T(1, "a", 0, 10), T(1, "c", 21, 30)};
  std::vector<Tuple> s = {S(1, "x", 11, 20)};
  // a meets x, and x meets c (so c is met-by x).
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(r, s,
               TemporalPredicate::AnyOf(
                   {AllenRelation::kMeets, AllenRelation::kMetBy})),
      {J(1, "a", "x", 0, 20), J(1, "c", "x", 11, 30)}));
}

// ---------------------------------------------------------------------
// Byte identity: sweep traced and untraced, and sweep vs reference oracle
// ---------------------------------------------------------------------

struct RunImage {
  std::vector<Page> pages;
  IoStats io;
  uint64_t output_tuples = 0;
};

RunImage ImageOf(StoredRelation* out, const JoinRunStats& stats) {
  RunImage image;
  image.io = stats.io;
  image.output_tuples = stats.output_tuples;
  image.pages.resize(out->num_pages());
  for (uint32_t p = 0; p < out->num_pages(); ++p) {
    auto st = out->ReadPage(p, &image.pages[p]);
    if (!st.ok()) ADD_FAILURE() << st.ToString();
  }
  return image;
}

void ExpectSamePages(const RunImage& a, const RunImage& b,
                     const std::string& what) {
  EXPECT_EQ(a.output_tuples, b.output_tuples) << what;
  ASSERT_EQ(a.pages.size(), b.pages.size()) << what;
  for (size_t p = 0; p < a.pages.size(); ++p) {
    EXPECT_EQ(std::memcmp(&a.pages[p], &b.pages[p], sizeof(Page)), 0)
        << what << ": output page " << p << " differs";
  }
}

struct VariantInputs {
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
};

// Random workload spiked with adjacency chains (back-to-back intervals so
// meets/met-by actually fire) and NULL join keys (NULL keys match each
// other), so every predicate class sees real matches.
VariantInputs MakeVariantInputs(uint64_t seed) {
  VariantInputs in;
  Random rng(seed);
  in.r_tuples = RandomTuples(rng, 240, 25, 400, 0.2);
  for (const Tuple& t : RandomTuples(rng, 220, 25, 400, 0.2)) {
    in.s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                            t.interval().start(), t.interval().end()));
  }
  for (int i = 0; i < 12; ++i) {
    const Chronon base = 30 * i;
    in.r_tuples.push_back(T(i % 25, "adj-r" + std::to_string(i), base,
                            base + 9));
    in.s_tuples.push_back(
        S(i % 25, "adj-s" + std::to_string(i), base + 10, base + 19));
    in.s_tuples.push_back(
        S(i % 25, "dur-s" + std::to_string(i), base + 2, base + 7));
    // adj-r starts sta-s (same start, r ends first); fin-r finishes adj-s
    // (same end, r starts later) — so the starts/finishes singleton
    // predicates have real matches too.
    in.s_tuples.push_back(
        S(i % 25, "sta-s" + std::to_string(i), base, base + 15));
    in.r_tuples.push_back(
        T(i % 25, "fin-r" + std::to_string(i), base + 12, base + 19));
  }
  for (int i = 0; i < 4; ++i) {
    in.r_tuples.push_back(
        Tuple({Value::Null(), Value("rnull" + std::to_string(i))},
              Interval(10 * i, 10 * i + 25)));
    in.s_tuples.push_back(
        Tuple({Value::Null(), Value("snull" + std::to_string(i))},
              Interval(10 * i + 26, 10 * i + 40)));
  }
  return in;
}

RunImage RunSweepVariant(const VariantInputs& in, TemporalPredicate pred,
                         bool traced, uint32_t buffer_pages) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  StoredRelation out(&disk, OutSchema(), "out");
  JoinRequest req;
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kSweep)
      .Predicate(pred)
      .BufferPages(buffer_pages);
  ExecContext ctx;
  auto stats = RunJoin(req, &out, traced ? &ctx : nullptr);
  if (!stats.ok()) {
    ADD_FAILURE() << pred.Name() << " traced=" << traced << ": "
                  << stats.status().ToString();
    return {};
  }
  return ImageOf(&out, *stats);
}

RunImage RunOracleVariant(const VariantInputs& in, TemporalPredicate pred) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  StoredRelation out(&disk, OutSchema(), "out");
  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kReference).Predicate(pred);
  auto stats = RunJoin(req, &out);
  if (!stats.ok()) {
    ADD_FAILURE() << pred.Name() << " oracle: " << stats.status().ToString();
    return {};
  }
  return ImageOf(&out, *stats);
}

/// The full predicate taxonomy the sweep serves.
std::vector<std::pair<std::string, TemporalPredicate>> TaxonomyPredicates() {
  return {
      {"overlap", TemporalPredicate::Overlap()},
      {"contains-join", TemporalPredicate::ContainJoin()},
      {"contained-in-join", TemporalPredicate::ContainedJoin()},
      {"equals", TemporalPredicate::EqualJoin()},
      {"meets", TemporalPredicate::Exactly(AllenRelation::kMeets)},
      {"met-by", TemporalPredicate::Exactly(AllenRelation::kMetBy)},
      {"meets-or-met-by",
       TemporalPredicate::AnyOf(
           {AllenRelation::kMeets, AllenRelation::kMetBy})},
      {"during", TemporalPredicate::Exactly(AllenRelation::kDuring)},
      {"starts", TemporalPredicate::Exactly(AllenRelation::kStarts)},
      {"finishes", TemporalPredicate::Exactly(AllenRelation::kFinishes)},
      {"overlaps-or-inverse",
       TemporalPredicate::AnyOf(
           {AllenRelation::kOverlaps, AllenRelation::kOverlappedBy})},
      {"adjacency-plus-overlap",
       TemporalPredicate::AnyOf(
           {AllenRelation::kMeets, AllenRelation::kMetBy,
            AllenRelation::kOverlaps, AllenRelation::kOverlappedBy,
            AllenRelation::kEquals})},
  };
}

// The acceptance bar: for every predicate in the taxonomy, the sweep's
// output pages are byte-identical to the extended reference oracle's
// (both emit the canonical result order), and a traced run writes the
// same pages and charges the same IoStats as an untraced one. (Every
// phase runs on the query's thread, so there is no thread count left to
// vary.)
TEST(SweepParityTest, ByteIdenticalToOracleAndAcrossThreadCounts) {
  const VariantInputs in = MakeVariantInputs(97);
  for (const auto& [name, pred] : TaxonomyPredicates()) {
    const RunImage oracle = RunOracleVariant(in, pred);
    const RunImage serial = RunSweepVariant(in, pred, /*traced=*/false, 16);
    EXPECT_GT(serial.output_tuples, 0u) << name << ": degenerate workload";
    ExpectSamePages(oracle, serial, name + " sweep vs oracle");
    const RunImage traced = RunSweepVariant(in, pred, /*traced=*/true, 16);
    ExpectSamePages(serial, traced, name + " traced");
    EXPECT_TRUE(traced.io == serial.io)
        << name << " traced: " << traced.io.ToString() << " vs "
        << serial.io.ToString();
  }
}

// A tight buffer forces multi-run external sorts on both sides; the sweep
// must still be byte-identical to the oracle.
TEST(SweepParityTest, SurvivesTightBufferByteIdentically) {
  const VariantInputs in = MakeVariantInputs(131);
  const TemporalPredicate pred = TemporalPredicate::AnyOf(
      {AllenRelation::kMeets, AllenRelation::kMetBy, AllenRelation::kEquals});
  const RunImage oracle = RunOracleVariant(in, pred);
  const RunImage tight = RunSweepVariant(in, pred, /*traced=*/false, 4);
  ExpectSamePages(oracle, tight, "tight buffer sweep vs oracle");
  const RunImage tight_traced = RunSweepVariant(in, pred, /*traced=*/true, 4);
  ExpectSamePages(tight, tight_traced, "tight buffer traced");
  EXPECT_TRUE(tight_traced.io == tight.io);
}

// ---------------------------------------------------------------------
// Every shared-chronon executor evaluates narrowing predicates and
// agrees with the oracle (multiset — inner output orders differ)
// ---------------------------------------------------------------------

TEST(PredicateExecutorParityTest, AllExecutorsMatchOracleOnSharedChronon) {
  const VariantInputs in = MakeVariantInputs(53);
  const std::vector<std::pair<std::string, TemporalPredicate>> preds = {
      {"contains-join", TemporalPredicate::ContainJoin()},
      {"contained-in-join", TemporalPredicate::ContainedJoin()},
      {"equals", TemporalPredicate::EqualJoin()},
      {"during", TemporalPredicate::Exactly(AllenRelation::kDuring)},
  };
  const std::vector<JoinExecutor> executors = {
      JoinExecutor::kNestedLoop,    JoinExecutor::kSortMerge,
      JoinExecutor::kIndexed,       JoinExecutor::kPartition,
      JoinExecutor::kInMemoryRadix, JoinExecutor::kSweep,
      JoinExecutor::kAuto,
  };
  for (const auto& [name, pred] : preds) {
    Disk odisk;
    auto orr = MakeRelation(&odisk, TestSchema(), in.r_tuples, "r");
    auto ors = MakeRelation(&odisk, SSchema(), in.s_tuples, "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(
        std::vector<Tuple> expected,
        ReferenceTemporalJoin(TestSchema(), in.r_tuples, SSchema(),
                              in.s_tuples, pred));
    for (JoinExecutor exec : executors) {
      Disk disk;
      auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
      auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
      StoredRelation out(&disk, OutSchema(), "out");
      JoinRequest req;
      req.From(r.get(), s.get()).Using(exec).Predicate(pred).BufferPages(16);
      auto stats = RunJoin(req, &out);
      ASSERT_TRUE(stats.ok()) << name << " on " << JoinExecutorName(exec)
                              << ": " << stats.status().ToString();
      TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
      EXPECT_TRUE(SameTupleMultiset(actual, expected))
          << name << " on " << JoinExecutorName(exec) << ": "
          << actual.size() << " vs " << expected.size() << " rows";
      EXPECT_EQ(stats->Get(Metric::kJoinPredicateMask),
                static_cast<double>(pred.mask()))
          << name << " on " << JoinExecutorName(exec);
    }
  }
}

// Only the reference oracle evaluates before/after.
TEST(PredicateExecutorParityTest, OracleAloneEvaluatesDisjointPredicates) {
  std::vector<Tuple> r = {T(1, "a", 0, 5), T(1, "b", 30, 40)};
  std::vector<Tuple> s = {S(1, "x", 10, 20)};
  Disk disk;
  auto rr = MakeRelation(&disk, TestSchema(), r, "r");
  auto rs = MakeRelation(&disk, SSchema(), s, "s");
  StoredRelation out(&disk, OutSchema(), "out");
  JoinRequest req;
  req.From(rr.get(), rs.get())
      .Using(JoinExecutor::kReference)
      .Predicate(AllenRelation::kBefore);
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  // a [0,5] is before x [10,20]; the stamp spans the gap.
  EXPECT_TRUE(SameTupleMultiset(actual, {J(1, "a", "x", 0, 20)}));
  EXPECT_EQ(stats.output_tuples, 1u);
}

// ---------------------------------------------------------------------
// ValidateExecOptions: rejections name executor, kind and predicate
// ---------------------------------------------------------------------

Status ValidationError(JoinExecutor exec, JoinKind kind,
                       TemporalPredicate pred) {
  ExecOptions options;
  options.join_kind = kind;
  options.predicate = pred;
  return ValidateExecOptions(exec, options);
}

void ExpectNames(const Status& st, const std::string& executor,
                 const std::string& kind, const std::string& pred) {
  ASSERT_FALSE(st.ok());
  const std::string msg(st.message());
  EXPECT_NE(msg.find(executor), std::string::npos) << msg;
  EXPECT_NE(msg.find(kind), std::string::npos) << msg;
  EXPECT_NE(msg.find(pred), std::string::npos) << msg;
}

TEST(ValidateExecOptionsTest, RejectsAdjacencyOnChrononOnlyExecutors) {
  for (JoinExecutor exec :
       {JoinExecutor::kNestedLoop, JoinExecutor::kSortMerge,
        JoinExecutor::kIndexed, JoinExecutor::kPartition,
        JoinExecutor::kInMemoryRadix}) {
    ExpectNames(ValidationError(exec, JoinKind::kInner,
                                TemporalPredicate::Exactly(
                                    AllenRelation::kMeets)),
                JoinExecutorName(exec), "inner", "meets");
  }
}

TEST(ValidateExecOptionsTest, RejectsDisjointOnEverythingButOracle) {
  const TemporalPredicate before =
      TemporalPredicate::Exactly(AllenRelation::kBefore);
  for (JoinExecutor exec :
       {JoinExecutor::kAuto, JoinExecutor::kNestedLoop, JoinExecutor::kSweep,
        JoinExecutor::kPartition}) {
    ExpectNames(ValidationError(exec, JoinKind::kInner, before),
                JoinExecutorName(exec), "inner", "before");
  }
  EXPECT_TRUE(
      ValidationError(JoinExecutor::kReference, JoinKind::kInner, before)
          .ok());
}

TEST(ValidateExecOptionsTest, RejectsNonInnerOnSweepAndNonDefaultPredicate) {
  ExpectNames(ValidationError(JoinExecutor::kSweep, JoinKind::kLeftOuter,
                              TemporalPredicate::Overlap()),
              "sweep", "left-outer", "overlap");
  // Even on an eligible executor, outer kinds only run under the default
  // overlap predicate.
  ExpectNames(ValidationError(JoinExecutor::kPartition, JoinKind::kFullOuter,
                              TemporalPredicate::ContainJoin()),
              "partition", "full-outer", "contains-join");
}

TEST(ValidateExecOptionsTest, AcceptsTheSupportedCombinations) {
  EXPECT_TRUE(ValidationError(JoinExecutor::kPartition, JoinKind::kInner,
                              TemporalPredicate::ContainJoin())
                  .ok());
  EXPECT_TRUE(ValidationError(JoinExecutor::kSweep, JoinKind::kInner,
                              TemporalPredicate::Exactly(
                                  AllenRelation::kMetBy))
                  .ok());
  EXPECT_TRUE(ValidationError(JoinExecutor::kAuto, JoinKind::kInner,
                              TemporalPredicate::AnyOf(
                                  {AllenRelation::kMeets,
                                   AllenRelation::kDuring}))
                  .ok());
  EXPECT_TRUE(ValidationError(JoinExecutor::kPartition, JoinKind::kLeftOuter,
                              TemporalPredicate::Overlap())
                  .ok());
}

TEST(ValidateExecOptionsTest, RunJoinEnforcesTheGate) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), GoldenR(), "r");
  auto s = MakeRelation(&disk, SSchema(), GoldenS(), "s");
  StoredRelation out(&disk, OutSchema(), "out");
  JoinRequest req;
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kInMemoryRadix)
      .Predicate(AllenRelation::kMeets);
  Status st = RunJoin(req, &out).status();
  ExpectNames(st, "in-memory-radix", "inner", "meets");
}

// ---------------------------------------------------------------------
// Sweep metrics and edge inputs
// ---------------------------------------------------------------------

TEST(SweepMetricsTest, ReportsActiveMapAndPredicateTelemetry) {
  const VariantInputs in = MakeVariantInputs(7);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  StoredRelation out(&disk, OutSchema(), "out");
  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kSweep).BufferPages(8);
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out));
  EXPECT_TRUE(stats.Has(Metric::kJoinPredicateMask));
  EXPECT_EQ(stats.Get(Metric::kJoinPredicateMask),
            static_cast<double>(TemporalPredicate::Overlap().mask()));
  EXPECT_GT(stats.Get(Metric::kSweepAppends), 0.0);
  EXPECT_GT(stats.Get(Metric::kSweepActivePeak), 0.0);
  EXPECT_GT(stats.Get(Metric::kSweepProbeHits), 0.0);
  EXPECT_GT(stats.Get(Metric::kSortIoOps), 0.0);
  EXPECT_GT(stats.output_tuples, 0u);
}

TEST(SweepEdgeTest, EmptySidesProduceEmptyOutput) {
  EXPECT_TRUE(
      SameTupleMultiset(RunSweep({}, GoldenS(), TemporalPredicate::Overlap()),
                        {}));
  EXPECT_TRUE(
      SameTupleMultiset(RunSweep(GoldenR(), {}, TemporalPredicate::Overlap()),
                        {}));
}

TEST(SweepEdgeTest, ChrononMaxIntervalNeverMeetsAnything) {
  // An interval ending at kChrononMax has no successor chronon; the
  // adjacency check must not wrap.
  std::vector<Tuple> r = {T(1, "a", 0, kChrononMax)};
  std::vector<Tuple> s = {S(1, "x", 5, 9)};
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(r, s, TemporalPredicate::Exactly(AllenRelation::kMeets)), {}));
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(r, s, TemporalPredicate::Exactly(AllenRelation::kContains)),
      {J(1, "a", "x", 5, 9)}));
}

TEST(SweepEdgeTest, PointIntervalsMeetInBothDirections) {
  std::vector<Tuple> r = {T(1, "a", 5, 5)};
  std::vector<Tuple> s = {S(1, "x", 6, 6), S(1, "y", 4, 4)};
  EXPECT_TRUE(SameTupleMultiset(
      RunSweep(r, s,
               TemporalPredicate::AnyOf(
                   {AllenRelation::kMeets, AllenRelation::kMetBy})),
      {J(1, "a", "x", 5, 6), J(1, "a", "y", 4, 5)}));
}

}  // namespace
}  // namespace tempo
