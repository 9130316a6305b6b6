// Tests for the sequenced join variants — valid-time left-outer,
// full-outer and anti joins: hand-derived golden outputs, the same result
// multiset from the partition executor and the brute-force oracle,
// identical output pages and charged IoStats traced or untraced, edge
// inputs (empty sides,
// all-NULL keys, meets-adjacent intervals, multi-partner full coverage),
// and request validation.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/partition_join.h"
#include "join/reference_join.h"
#include "service/join_request.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::ExpectSameResults;
using ::tempo::testing::ExpectSameRun;
using ::tempo::testing::ImageOf;
using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::RunImage;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"sval", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& v, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(v)}, Interval(vs, ve));
}

// Join-output row (key, name, sval); nullptr marks a NULL-padded slot.
Value VN(const char* s) {
  return s == nullptr ? Value::Null() : Value(std::string(s));
}

Tuple J(int64_t key, const char* name, const char* sval, Chronon vs,
        Chronon ve) {
  return Tuple({Value(key), VN(name), VN(sval)}, Interval(vs, ve));
}

Schema OutputSchemaFor(JoinKind kind) {
  if (kind == JoinKind::kAnti) return TestSchema();
  auto layout = DeriveNaturalJoinLayout(TestSchema(), SSchema());
  return layout->output;
}

// ---------------------------------------------------------------------
// Golden hand-derived outputs
// ---------------------------------------------------------------------
//
// r (key, name):              s (key, sval):
//   (1, alice) [0, 10]          (1, sales) [0, 7]
//   (1, ann)   [5, 15]          (2, eng)   [3, 9]
//   (2, bob)   [0, 5]           (3, ops)   [0, 4]
//   (3, carol) [8, 12]          (5, hr)    [0, 30]
//   (4, dave)  [20, 25]
//
// Matches: alice×sales [0,7], ann×sales [5,7], bob×eng [3,5]; carol's
// key-3 partner ops does not overlap [8,12]; dave has no partner.

std::vector<Tuple> GoldenR() {
  return {T(1, "alice", 0, 10), T(1, "ann", 5, 15), T(2, "bob", 0, 5),
          T(3, "carol", 8, 12), T(4, "dave", 20, 25)};
}

std::vector<Tuple> GoldenS() {
  return {S(1, "sales", 0, 7), S(2, "eng", 3, 9), S(3, "ops", 0, 4),
          S(5, "hr", 0, 30)};
}

std::vector<Tuple> GoldenMatches() {
  return {J(1, "alice", "sales", 0, 7), J(1, "ann", "sales", 5, 7),
          J(2, "bob", "eng", 3, 5)};
}

std::vector<Tuple> GoldenRUnmatched() {
  return {J(1, "alice", nullptr, 8, 10), J(1, "ann", nullptr, 8, 15),
          J(2, "bob", nullptr, 0, 2), J(3, "carol", nullptr, 8, 12),
          J(4, "dave", nullptr, 20, 25)};
}

std::vector<Tuple> GoldenSUnmatched() {
  return {J(2, nullptr, "eng", 6, 9), J(3, nullptr, "ops", 0, 4),
          J(5, nullptr, "hr", 0, 30)};
}

std::vector<Tuple> GoldenExpected(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
      return GoldenMatches();
    case JoinKind::kLeftOuter: {
      std::vector<Tuple> out = GoldenMatches();
      for (const Tuple& t : GoldenRUnmatched()) out.push_back(t);
      return out;
    }
    case JoinKind::kFullOuter: {
      std::vector<Tuple> out = GoldenMatches();
      for (const Tuple& t : GoldenRUnmatched()) out.push_back(t);
      for (const Tuple& t : GoldenSUnmatched()) out.push_back(t);
      return out;
    }
    case JoinKind::kAnti:
      return {T(1, "alice", 8, 10), T(1, "ann", 8, 15), T(2, "bob", 0, 2),
              T(3, "carol", 8, 12), T(4, "dave", 20, 25)};
  }
  return {};
}

class GoldenOuterJoinTest : public ::testing::TestWithParam<JoinKind> {};

TEST_P(GoldenOuterJoinTest, PartitionExecutorMatchesHandDerivedRows) {
  const JoinKind kind = GetParam();
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), GoldenR(), "r");
  auto s = MakeRelation(&disk, SSchema(), GoldenS(), "s");
  StoredRelation out(&disk, OutputSchemaFor(kind), "out");

  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kPartition).Kind(kind);
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out));

  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  const std::vector<Tuple> expected = GoldenExpected(kind);
  EXPECT_TRUE(SameTupleMultiset(actual, expected))
      << JoinKindName(kind) << " actual=" << actual.size()
      << " expected=" << expected.size();
  EXPECT_EQ(stats.output_tuples, expected.size());
  EXPECT_EQ(stats.Get(Metric::kSequencedJoinKind),
            static_cast<double>(kind));

  const double unmatched = stats.Get(Metric::kOuterUnmatchedTuples);
  const double uncovered = stats.Get(Metric::kUncoveredSubintervalsEmitted);
  switch (kind) {
    case JoinKind::kLeftOuter:
      EXPECT_EQ(unmatched, 5.0);
      EXPECT_EQ(uncovered, 5.0);
      break;
    case JoinKind::kFullOuter:
      EXPECT_EQ(unmatched, 8.0);  // 5 r-side + 3 s-side
      EXPECT_EQ(uncovered, 8.0);
      break;
    case JoinKind::kAnti:
      EXPECT_EQ(unmatched, 5.0);
      EXPECT_EQ(uncovered, 5.0);
      EXPECT_EQ(stats.Get(Metric::kAntiEmittedIntervals), 5.0);
      break;
    default:
      break;
  }
}

TEST_P(GoldenOuterJoinTest, OracleMatchesHandDerivedRows) {
  const JoinKind kind = GetParam();
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> oracle,
      ReferenceJoin(TestSchema(), GoldenR(), SSchema(), GoldenS(), kind));
  EXPECT_TRUE(SameTupleMultiset(oracle, GoldenExpected(kind)))
      << JoinKindName(kind);
}

INSTANTIATE_TEST_SUITE_P(Kinds, GoldenOuterJoinTest,
                         ::testing::Values(JoinKind::kLeftOuter,
                                           JoinKind::kFullOuter,
                                           JoinKind::kAnti),
                         [](const auto& info) {
                           std::string name = JoinKindName(info.param);
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

// ---------------------------------------------------------------------
// Parity: partition executor vs oracle, traced and untraced
// ---------------------------------------------------------------------

struct VariantInputs {
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
};

// Random workload with a sprinkle of NULL join keys (NULL keys match each
// other) so the parity runs cover the NULL path too.
VariantInputs MakeVariantInputs(uint64_t seed) {
  VariantInputs in;
  Random rng(seed);
  in.r_tuples = RandomTuples(rng, 300, 25, 500, 0.25);
  for (const Tuple& t : RandomTuples(rng, 260, 25, 500, 0.25)) {
    in.s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                            t.interval().start(), t.interval().end()));
  }
  for (int i = 0; i < 6; ++i) {
    in.r_tuples.push_back(
        Tuple({Value::Null(), Value("rnull" + std::to_string(i))},
              Interval(10 * i, 10 * i + 25)));
    in.s_tuples.push_back(
        Tuple({Value::Null(), Value("snull" + std::to_string(i))},
              Interval(15 * i, 15 * i + 5)));
  }
  return in;
}

RunImage RunPartitionVariant(const VariantInputs& in, JoinKind kind,
                             bool traced, uint32_t buffer_pages) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  StoredRelation out(&disk, OutputSchemaFor(kind), "out");
  JoinRequest req;
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kPartition)
      .Kind(kind)
      .BufferPages(buffer_pages);
  ExecContext ctx;
  auto stats = RunJoin(req, &out, traced ? &ctx : nullptr);
  if (!stats.ok()) {
    ADD_FAILURE() << JoinKindName(kind) << " traced=" << traced << ": "
                  << stats.status().ToString();
    return {};
  }
  return ImageOf(&out, *stats);
}

RunImage RunOracleVariant(const VariantInputs& in, JoinKind kind) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  StoredRelation out(&disk, OutputSchemaFor(kind), "out");
  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kReference).Kind(kind);
  auto stats = RunJoin(req, &out);
  if (!stats.ok()) {
    ADD_FAILURE() << JoinKindName(kind) << " oracle: "
                  << stats.status().ToString();
    return {};
  }
  return ImageOf(&out, *stats);
}

class VariantParityTest : public ::testing::TestWithParam<JoinKind> {};

// The acceptance bar: for every non-inner kind, the partition executor
// writes the same result multiset as the brute-force oracle, and a traced
// run writes the same pages in the same order and charges the same
// IoStats as an untraced one. (Every phase runs on the query's thread, so
// there is no thread count left to vary.)
// Checked on both the multi-partition Grace path (small buffer) and the
// in-memory fast path (large buffer).
TEST_P(VariantParityTest, ExecutorMatchesOracleByteIdenticalAt124Threads) {
  const JoinKind kind = GetParam();
  const VariantInputs in = MakeVariantInputs(41);
  const RunImage oracle = RunOracleVariant(in, kind);
  ASSERT_GT(oracle.output_tuples, 0u);

  for (uint32_t buffer_pages : {8u, 256u}) {
    const RunImage serial =
        RunPartitionVariant(in, kind, /*traced=*/false, buffer_pages);
    ExpectSameResults(oracle, serial,
                      std::string(JoinKindName(kind)) +
                          " serial vs oracle @buf=" +
                          std::to_string(buffer_pages));
    const RunImage traced =
        RunPartitionVariant(in, kind, /*traced=*/true, buffer_pages);
    ExpectSameRun(serial, traced,
                  std::string(JoinKindName(kind)) + " traced @buf=" +
                      std::to_string(buffer_pages));
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, VariantParityTest,
                         ::testing::Values(JoinKind::kLeftOuter,
                                           JoinKind::kFullOuter,
                                           JoinKind::kAnti),
                         [](const auto& info) {
                           std::string name = JoinKindName(info.param);
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

// ---------------------------------------------------------------------
// Edge inputs
// ---------------------------------------------------------------------

std::vector<Tuple> RunKind(Disk* disk, const std::vector<Tuple>& r_tuples,
                           const std::vector<Tuple>& s_tuples, JoinKind kind) {
  auto r = MakeRelation(disk, TestSchema(), r_tuples, "er");
  auto s = MakeRelation(disk, SSchema(), s_tuples, "es");
  StoredRelation out(disk, OutputSchemaFor(kind), "eout");
  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kPartition).Kind(kind);
  auto stats = RunJoin(req, &out);
  if (!stats.ok()) {
    ADD_FAILURE() << JoinKindName(kind) << ": " << stats.status().ToString();
    return {};
  }
  auto actual = out.ReadAll();
  if (!actual.ok()) {
    ADD_FAILURE() << actual.status().ToString();
    return {};
  }
  // Every edge case is also cross-checked against the oracle.
  auto oracle =
      ReferenceJoin(TestSchema(), r_tuples, SSchema(), s_tuples, kind);
  if (!oracle.ok()) {
    ADD_FAILURE() << oracle.status().ToString();
  } else {
    EXPECT_TRUE(SameTupleMultiset(*actual, *oracle))
        << JoinKindName(kind) << " disagrees with oracle";
  }
  return *std::move(actual);
}

TEST(OuterJoinEdgeTest, EmptyProbeSidePreservesEveryBuildTuple) {
  Disk disk;
  const std::vector<Tuple> r = {T(1, "a", 0, 5), T(2, "b", 3, 9)};
  EXPECT_TRUE(SameTupleMultiset(
      RunKind(&disk, r, {}, JoinKind::kLeftOuter),
      {J(1, "a", nullptr, 0, 5), J(2, "b", nullptr, 3, 9)}));
  EXPECT_TRUE(SameTupleMultiset(
      RunKind(&disk, r, {}, JoinKind::kFullOuter),
      {J(1, "a", nullptr, 0, 5), J(2, "b", nullptr, 3, 9)}));
  EXPECT_TRUE(SameTupleMultiset(RunKind(&disk, r, {}, JoinKind::kAnti), r));
}

TEST(OuterJoinEdgeTest, EmptyPreservedSideEmitsOnlyProbeUnmatched) {
  Disk disk;
  const std::vector<Tuple> s = {S(1, "x", 0, 5), S(2, "y", 3, 9)};
  EXPECT_TRUE(RunKind(&disk, {}, s, JoinKind::kLeftOuter).empty());
  EXPECT_TRUE(RunKind(&disk, {}, s, JoinKind::kAnti).empty());
  EXPECT_TRUE(SameTupleMultiset(
      RunKind(&disk, {}, s, JoinKind::kFullOuter),
      {J(1, nullptr, "x", 0, 5), J(2, nullptr, "y", 3, 9)}));
}

TEST(OuterJoinEdgeTest, AllNullJoinKeysMatchEachOther) {
  Disk disk;
  const std::vector<Tuple> r = {
      Tuple({Value::Null(), Value("a")}, Interval(0, 10))};
  const std::vector<Tuple> s = {
      Tuple({Value::Null(), Value("x")}, Interval(0, 4))};
  // NULL keys compare equal in join keys (unlike selection predicates),
  // so the pair matches on [0, 4] and [5, 10] stays uncovered.
  EXPECT_TRUE(SameTupleMultiset(
      RunKind(&disk, r, s, JoinKind::kLeftOuter),
      {Tuple({Value::Null(), Value("a"), Value("x")}, Interval(0, 4)),
       Tuple({Value::Null(), Value("a"), Value::Null()}, Interval(5, 10))}));
  EXPECT_TRUE(SameTupleMultiset(
      RunKind(&disk, r, s, JoinKind::kAnti),
      {Tuple({Value::Null(), Value("a")}, Interval(5, 10))}));
}

TEST(OuterJoinEdgeTest, MeetsAdjacentIntervalsDoNotMatch) {
  Disk disk;
  // Same key, r meets s: [0,5] then [6,10] — adjacent, zero shared
  // chronons, so the pair must NOT join and both sides stay unmatched in
  // full over their whole validity.
  const std::vector<Tuple> r = {T(7, "a", 0, 5)};
  const std::vector<Tuple> s = {S(7, "x", 6, 10)};
  EXPECT_TRUE(SameTupleMultiset(RunKind(&disk, r, s, JoinKind::kLeftOuter),
                                {J(7, "a", nullptr, 0, 5)}));
  EXPECT_TRUE(SameTupleMultiset(
      RunKind(&disk, r, s, JoinKind::kFullOuter),
      {J(7, "a", nullptr, 0, 5), J(7, nullptr, "x", 6, 10)}));
  EXPECT_TRUE(SameTupleMultiset(RunKind(&disk, r, s, JoinKind::kAnti),
                                {T(7, "a", 0, 5)}));
}

TEST(OuterJoinEdgeTest, TupleFullyCoveredByMultiplePartnersEmitsNoPadding) {
  Disk disk;
  // No single partner covers r's [0,10], but their union does (including
  // an overlapping pair) — coverage is an IntervalSet union, so no
  // unmatched row may appear.
  const std::vector<Tuple> r = {T(7, "a", 0, 10)};
  const std::vector<Tuple> s = {S(7, "x", 0, 4), S(7, "y", 3, 10)};
  EXPECT_TRUE(SameTupleMultiset(
      RunKind(&disk, r, s, JoinKind::kLeftOuter),
      {J(7, "a", "x", 0, 4), J(7, "a", "y", 3, 10)}));
  EXPECT_TRUE(RunKind(&disk, r, s, JoinKind::kAnti).empty());
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

TEST(OuterJoinValidationTest, NonInnerKindRejectsOtherExecutors) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 5)}, "r");
  auto s = MakeRelation(&disk, SSchema(), {S(1, "x", 0, 5)}, "s");
  StoredRelation out(&disk, OutputSchemaFor(JoinKind::kLeftOuter), "out");
  for (JoinExecutor executor :
       {JoinExecutor::kNestedLoop, JoinExecutor::kSortMerge,
        JoinExecutor::kIndexed, JoinExecutor::kInMemoryRadix}) {
    JoinRequest req;
    req.From(r.get(), s.get()).Using(executor).Kind(JoinKind::kLeftOuter);
    auto stats = RunJoin(req, &out);
    ASSERT_FALSE(stats.ok()) << JoinExecutorName(executor);
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument)
        << JoinExecutorName(executor) << ": " << stats.status().ToString();
  }
}

TEST(OuterJoinValidationTest, NonInnerKindRequiresOverlapAndLastOverlap) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 5)}, "r");
  auto s = MakeRelation(&disk, SSchema(), {S(1, "x", 0, 5)}, "s");
  StoredRelation out(&disk, OutputSchemaFor(JoinKind::kLeftOuter), "out");

  PartitionJoinOptions wrong_pred;
  wrong_pred.join_kind = JoinKind::kLeftOuter;
  wrong_pred.predicate = TemporalPredicate::ContainJoin();
  EXPECT_EQ(PartitionVtJoin(r.get(), s.get(), &out, wrong_pred)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  PartitionJoinOptions wrong_place;
  wrong_place.join_kind = JoinKind::kFullOuter;
  wrong_place.placement = PlacementPolicy::kReplicate;
  EXPECT_EQ(PartitionVtJoin(r.get(), s.get(), &out, wrong_place)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(OuterJoinValidationTest, AntiJoinRequiresPreservedSideSchema) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 5)}, "r");
  auto s = MakeRelation(&disk, SSchema(), {S(1, "x", 0, 5)}, "s");
  // Anti output lives in r's own schema; handing the join layout's
  // three-attribute schema is a caller bug the executor must reject.
  StoredRelation wrong(&disk, OutputSchemaFor(JoinKind::kLeftOuter), "w");
  JoinRequest req;
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kPartition)
      .Kind(JoinKind::kAnti);
  EXPECT_EQ(RunJoin(req, &wrong).status().code(),
            StatusCode::kInvalidArgument);

  StoredRelation right(&disk, TestSchema(), "ok");
  TEMPO_ASSERT_OK(RunJoin(req, &right).status());
}

// ---------------------------------------------------------------------
// TE-outerjoin / event join [SG89]: the sequenced left- and full-outer
// joins, checked through the reference oracle
// ---------------------------------------------------------------------

TEST(TEOuterJoinTest, PadsUnmatchedStretchesWithNulls) {
  std::vector<Tuple> r{T(1, "a", 0, 10)};
  std::vector<Tuple> s{S(1, "x", 3, 5)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r, SSchema(), s,
                    JoinKind::kLeftOuter));
  // One match on [3,5], NULL-padded stretches [0,2] and [6,10].
  ASSERT_EQ(out.size(), 3u);
  int matches = 0, nulls = 0;
  for (const Tuple& t : out) {
    if (t.value(2).is_null()) {
      ++nulls;
      EXPECT_TRUE(t.interval() == Interval(0, 2) ||
                  t.interval() == Interval(6, 10))
          << t.ToString();
      EXPECT_EQ(t.value(0).AsInt64(), 1);
      EXPECT_EQ(t.value(1).AsString(), "a");
    } else {
      ++matches;
      EXPECT_EQ(t.interval(), Interval(3, 5));
      EXPECT_EQ(t.value(2).AsString(), "x");
    }
  }
  EXPECT_EQ(matches, 1);
  EXPECT_EQ(nulls, 2);
}

TEST(TEOuterJoinTest, FullyCoveredTupleHasNoPadding) {
  std::vector<Tuple> r{T(1, "a", 3, 5)};
  std::vector<Tuple> s{S(1, "x", 0, 10)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r, SSchema(), s,
                    JoinKind::kLeftOuter));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].value(2).is_null());
}

TEST(TEOuterJoinTest, NoMatchMeansFullPadding) {
  std::vector<Tuple> r{T(1, "a", 0, 10)};
  std::vector<Tuple> s{S(2, "x", 0, 10)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r, SSchema(), s,
                    JoinKind::kLeftOuter));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].value(2).is_null());
  EXPECT_EQ(out[0].interval(), Interval(0, 10));
}

TEST(TEOuterJoinTest, CoverageInvariant) {
  // For every r tuple, the output intervals carrying its values exactly
  // tile its validity interval (match stretches + padding).
  Random rng(66);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 60, 6, 80, 0.4);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 60, 6, 80, 0.4)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r_tuples, SSchema(), s_tuples,
                    JoinKind::kLeftOuter));
  // Coverage check per r tuple via chronon counting.
  for (const Tuple& x : r_tuples) {
    for (Chronon t = x.interval().start(); t <= x.interval().end(); ++t) {
      // Count output tuples with x's key+name valid at t: padding is
      // exactly where no s tuple overlaps; matches elsewhere. Either way
      // at least one output tuple must cover chronon t.
      bool covered = false;
      for (const Tuple& z : out) {
        if (z.value(0) == x.value(0) && z.value(1) == x.value(1) &&
            z.interval().Contains(t)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << x.ToString() << " at " << t;
    }
  }
}

TEST(EventJoinTest, PadsBothSides) {
  std::vector<Tuple> r{T(1, "a", 0, 4)};
  std::vector<Tuple> s{S(1, "x", 3, 8)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceJoin(TestSchema(), r, SSchema(), s,
                    JoinKind::kFullOuter));
  // Match [3,4]; r-padding [0,2]; s-padding [5,8] with NULL name.
  ASSERT_EQ(out.size(), 3u);
  int r_pads = 0, s_pads = 0, matches = 0;
  for (const Tuple& t : out) {
    if (t.value(2).is_null()) {
      ++r_pads;
      EXPECT_EQ(t.interval(), Interval(0, 2));
    } else if (t.value(1).is_null()) {
      ++s_pads;
      EXPECT_EQ(t.interval(), Interval(5, 8));
      EXPECT_EQ(t.value(2).AsString(), "x");
    } else {
      ++matches;
      EXPECT_EQ(t.interval(), Interval(3, 4));
    }
  }
  EXPECT_EQ(r_pads, 1);
  EXPECT_EQ(s_pads, 1);
  EXPECT_EQ(matches, 1);
}

}  // namespace
}  // namespace tempo
