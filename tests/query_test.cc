// Golden suite for the sequenced temporal query layer: eleven hand-derived
// SPJ pipelines over small relations, each checked two ways — exact
// multiset equality against the hand-derived rows, and chronon-exact
// snapshot reducibility against the nontemporal oracle at every chronon
// of the inputs' lifespan (plus one chronon of slack each side). Also
// covers plan validation errors, bare-scan materialization, intermediate
// cleanup, and the EXPLAIN ANALYZE rendering of a sequenced run.
//
// The pipelines play the role of a PUG-style golden corpus: every
// expected row below was derived by hand from the operator definitions
// in DESIGN.md §4i and is stated inline, next to the plan that must
// produce it.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/partition_coalesce.h"
#include "join/reference_join.h"
#include "obs/explain.h"
#include "query/query_plan.h"
#include "query/sequenced_exec.h"
#include "query/snapshot_oracle.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"sval", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& v, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(v)}, Interval(vs, ve));
}

Value VN(const char* s) {
  return s == nullptr ? Value::Null() : Value(std::string(s));
}

// Join-output row (key, name, sval); nullptr marks a NULL-padded slot.
Tuple J(int64_t key, const char* name, const char* sval, Chronon vs,
        Chronon ve) {
  return Tuple({Value(key), VN(name), VN(sval)}, Interval(vs, ve));
}

// Single-int64 and (int64, string) rows for projected outputs.
Tuple K(int64_t key, Chronon vs, Chronon ve) {
  return Tuple({Value(key)}, Interval(vs, ve));
}
Tuple N(const std::string& name, Chronon vs, Chronon ve) {
  return Tuple({Value(name)}, Interval(vs, ve));
}

AttrPredicate Eq(const std::string& attr, Value v) {
  return {attr, CompareOp::kEq, std::move(v)};
}

// The shared base data (same as the outer-join golden corpus):
//
// r (key, name):              s (key, sval):
//   (1, alice) [0, 10]          (1, sales) [0, 7]
//   (1, ann)   [5, 15]          (2, eng)   [3, 9]
//   (2, bob)   [0, 5]           (3, ops)   [0, 4]
//   (3, carol) [8, 12]          (5, hr)    [0, 30]
//   (4, dave)  [20, 25]
class GoldenPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = MakeRelation(&disk_, TestSchema(),
                      {T(1, "alice", 0, 10), T(1, "ann", 5, 15),
                       T(2, "bob", 0, 5), T(3, "carol", 8, 12),
                       T(4, "dave", 20, 25)},
                      "r");
    s_ = MakeRelation(&disk_, SSchema(),
                      {S(1, "sales", 0, 7), S(2, "eng", 3, 9),
                       S(3, "ops", 0, 4), S(5, "hr", 0, 30)},
                      "s");
  }

  // Runs `plan`, requires the output to equal `expected` exactly (as a
  // multiset), and checks snapshot reducibility at every chronon of the
  // base relations' range.
  void ExpectGolden(const QueryPlan& plan,
                    const std::vector<Tuple>& expected,
                    const std::string& prefix,
                    const QueryOptions& options = {}) {
    TEMPO_ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        RunSequencedQuery(plan, &disk_, options, nullptr, prefix));
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual,
                               result.relation->ReadAll());
    EXPECT_TRUE(SameTupleMultiset(actual, expected))
        << prefix << ": actual=" << actual.size()
        << " expected=" << expected.size();
    EXPECT_EQ(result.output_tuples, expected.size()) << prefix;

    TEMPO_ASSERT_OK_AND_ASSIGN(auto range, BaseChrononRange(plan.root()));
    ASSERT_LE(range.first, range.second) << prefix;
    TEMPO_EXPECT_OK(
        CheckSnapshotReducible(plan.root(), actual, range.first,
                               range.second));
  }

  Disk disk_;
  std::unique_ptr<StoredRelation> r_;
  std::unique_ptr<StoredRelation> s_;
};

// P1: σ key=1 (r) — both key-1 tuples, intervals untouched.
TEST_F(GoldenPipelineTest, SelectOnScan) {
  ExpectGolden(QueryPlan::Scan(r_.get()).Select(Eq("key", Value(int64_t{1}))),
               {T(1, "alice", 0, 10), T(1, "ann", 5, 15)}, "p1");
}

// P2: π key (r) — value-equal rows with overlapping intervals stay
// separate rows: [0,10] and [5,15] for key 1 must NOT merge into [0,15]
// (change preservation; only an explicit PartitionCoalesce merges them).
TEST_F(GoldenPipelineTest, ProjectKeepsDuplicatesAndIntervals) {
  ExpectGolden(QueryPlan::Scan(r_.get()).Project({"key"}),
               {K(1, 0, 10), K(1, 5, 15), K(2, 0, 5), K(3, 8, 12),
                K(4, 20, 25)},
               "p2");
}

// P3: π key (σ name≠bob (r)).
TEST_F(GoldenPipelineTest, SelectThenProject) {
  ExpectGolden(QueryPlan::Scan(r_.get())
                   .Select({"name", CompareOp::kNe, Value(std::string("bob"))})
                   .Project({"key"}),
               {K(1, 0, 10), K(1, 5, 15), K(3, 8, 12), K(4, 20, 25)}, "p3");
}

// P4: σ sval=sales (r ⋈ᵗ s) — the two sales matches.
TEST_F(GoldenPipelineTest, JoinThenSelect) {
  ExpectGolden(
      QueryPlan::Join(QueryPlan::Scan(r_.get()), QueryPlan::Scan(s_.get()))
          .Select(Eq("sval", Value(std::string("sales")))),
      {J(1, "alice", "sales", 0, 7), J(1, "ann", "sales", 5, 7)}, "p4");
}

// P5: π key,name (r ⟕ᵗ s) — the three matches plus the five uncovered
// r-subintervals, with the NULL sval column projected away.
TEST_F(GoldenPipelineTest, LeftOuterThenProject) {
  ExpectGolden(
      QueryPlan::Join(QueryPlan::Scan(r_.get()), QueryPlan::Scan(s_.get()),
                      JoinKind::kLeftOuter)
          .Project({"key", "name"}),
      {T(1, "alice", 0, 7), T(1, "ann", 5, 7), T(2, "bob", 3, 5),
       T(1, "alice", 8, 10), T(1, "ann", 8, 15), T(2, "bob", 0, 2),
       T(3, "carol", 8, 12), T(4, "dave", 20, 25)},
      "p5");
}

// P6: σ key>1 (r ⟗ᵗ s) — full outer, then drop the key-1 rows. The
// s-unmatched rows carry s's key, so eng/ops/hr survive the filter.
TEST_F(GoldenPipelineTest, FullOuterThenSelect) {
  ExpectGolden(
      QueryPlan::Join(QueryPlan::Scan(r_.get()), QueryPlan::Scan(s_.get()),
                      JoinKind::kFullOuter)
          .Select({"key", CompareOp::kGt, Value(int64_t{1})}),
      {J(2, "bob", "eng", 3, 5), J(2, "bob", nullptr, 0, 2),
       J(3, "carol", nullptr, 8, 12), J(4, "dave", nullptr, 20, 25),
       J(2, nullptr, "eng", 6, 9), J(3, nullptr, "ops", 0, 4),
       J(5, nullptr, "hr", 0, 30)},
      "p6");
}

// P7: π name (r ▷ᵗ s) — anti join in r's own schema, then keep the name.
TEST_F(GoldenPipelineTest, AntiThenProject) {
  ExpectGolden(
      QueryPlan::Join(QueryPlan::Scan(r_.get()), QueryPlan::Scan(s_.get()),
                      JoinKind::kAnti)
          .Project({"name"}),
      {N("alice", 8, 10), N("ann", 8, 15), N("bob", 0, 2), N("carol", 8, 12),
       N("dave", 20, 25)},
      "p7");
}

// P8: r -ᵗ r2 — sequenced difference splits intervals per tuple: alice
// loses [3,20] of her [0,10], bob [0,5] vanishes inside [0,10]; ann
// (different name) is untouched even where alice's subtrahend overlaps.
// Run again with the join-node executor set to one that runs no anti
// join: the difference always plans its anti join with kAuto.
TEST_F(GoldenPipelineTest, DifferenceSplitsIntervals) {
  auto r2 = MakeRelation(&disk_, TestSchema(),
                         {T(1, "alice", 3, 20), T(2, "bob", 0, 10)}, "r2");
  QueryOptions sort_merge_joins;
  sort_merge_joins.executor = JoinExecutor::kSortMerge;
  for (const QueryOptions& options : {QueryOptions{}, sort_merge_joins}) {
    ExpectGolden(
        QueryPlan::Difference(QueryPlan::Scan(r_.get()),
                              QueryPlan::Scan(r2.get())),
        {T(1, "alice", 0, 2), T(1, "ann", 5, 15), T(3, "carol", 8, 12),
         T(4, "dave", 20, 25)},
        "p8", options);
  }
}

// P9: σ key=1 (r) ⟕ᵗ s — selection below the preserved side of an outer
// join: only alice and ann reach the join, each with match + uncovered
// rows.
TEST_F(GoldenPipelineTest, SelectUnderLeftOuter) {
  ExpectGolden(
      QueryPlan::Join(
          QueryPlan::Scan(r_.get()).Select(Eq("key", Value(int64_t{1}))),
          QueryPlan::Scan(s_.get()), JoinKind::kLeftOuter),
      {J(1, "alice", "sales", 0, 7), J(1, "ann", "sales", 5, 7),
       J(1, "alice", nullptr, 8, 10), J(1, "ann", nullptr, 8, 15)},
      "p9");
}

// P10: σ key=1 (r) -ᵗ σ name=alice (r) — difference of two selections;
// alice cancels herself exactly, ann survives whole.
TEST_F(GoldenPipelineTest, DifferenceOfSelects) {
  ExpectGolden(
      QueryPlan::Difference(
          QueryPlan::Scan(r_.get()).Select(Eq("key", Value(int64_t{1}))),
          QueryPlan::Scan(r_.get()).Select(
              Eq("name", Value(std::string("alice"))))),
      {T(1, "ann", 5, 15)}, "p10");
}

// P11: l -ᵗ l2 with NULL attributes on both sides. NULL equals NULL, so a
// NULL-valued row cancels its value-equivalent partner: (1, NULL) loses
// [3,6] of its [0,10], (NULL, x) vanishes under its twin, and (2, b)
// survives whole because (2, NULL) is not value-equivalent to it.
TEST_F(GoldenPipelineTest, DifferenceCancelsNullValuedPartners) {
  auto row = [](Value key, Value name, Chronon vs, Chronon ve) {
    return Tuple({std::move(key), std::move(name)}, Interval(vs, ve));
  };
  const Value one(int64_t{1});
  const Value two(int64_t{2});
  const Value x(std::string("x"));
  auto l = MakeRelation(&disk_, TestSchema(),
                        {row(one, Value::Null(), 0, 10),
                         row(Value::Null(), x, 0, 5),
                         row(two, Value(std::string("b")), 0, 4)},
                        "l");
  auto l2 = MakeRelation(&disk_, TestSchema(),
                         {row(one, Value::Null(), 3, 6),
                          row(Value::Null(), x, 0, 5),
                          row(two, Value::Null(), 0, 4)},
                         "l2");
  ExpectGolden(QueryPlan::Difference(QueryPlan::Scan(l.get()),
                                     QueryPlan::Scan(l2.get())),
               {row(one, Value::Null(), 0, 2), row(one, Value::Null(), 7, 10),
                row(two, Value(std::string("b")), 0, 4)},
               "p11");
}

// ---------------------------------------------------------------------
// Mechanics: bare scans, cleanup, validation, EXPLAIN ANALYZE
// ---------------------------------------------------------------------

TEST_F(GoldenPipelineTest, BareScanRootMaterializesACopy) {
  TEMPO_ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      RunSequencedQuery(QueryPlan::Scan(r_.get()), &disk_));
  EXPECT_NE(result.relation.get(), r_.get());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual,
                             result.relation->ReadAll());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> original, r_->ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, original));
}

TEST_F(GoldenPipelineTest, IntermediatesAreDeletedEagerly) {
  // A three-operator pipeline materializes two intermediates plus the
  // root. Deleted files free their pages, so after the run the disk's
  // footprint must be exactly the base relations plus the root's file.
  const uint64_t pages_before = disk_.TotalPages();
  TEMPO_ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      RunSequencedQuery(QueryPlan::Join(QueryPlan::Scan(r_.get()),
                                        QueryPlan::Scan(s_.get()),
                                        JoinKind::kLeftOuter)
                            .Select({"key", CompareOp::kGe, Value(int64_t{0})})
                            .Project({"key", "name"}),
                        &disk_));
  EXPECT_EQ(disk_.TotalPages(), pages_before + result.relation->num_pages())
      << "intermediate relations must be deleted as soon as consumed";
}

TEST_F(GoldenPipelineTest, ValidationErrors) {
  auto bad_select = RunSequencedQuery(
      QueryPlan::Scan(r_.get()).Select(Eq("nope", Value(int64_t{0}))), &disk_);
  EXPECT_EQ(bad_select.status().code(), StatusCode::kInvalidArgument);

  auto bad_project = RunSequencedQuery(
      QueryPlan::Scan(r_.get()).Project({"key", "nope"}), &disk_);
  EXPECT_EQ(bad_project.status().code(), StatusCode::kInvalidArgument);

  // r and s are not union compatible (name:string vs sval:string differ
  // by attribute name).
  auto bad_diff = RunSequencedQuery(
      QueryPlan::Difference(QueryPlan::Scan(r_.get()),
                            QueryPlan::Scan(s_.get())),
      &disk_);
  EXPECT_EQ(bad_diff.status().code(), StatusCode::kInvalidArgument);

  StoredRelation unflushed(&disk_, TestSchema(), "unflushed");
  TEMPO_ASSERT_OK(unflushed.Append(T(1, "x", 0, 1)));
  auto bad_scan = RunSequencedQuery(QueryPlan::Scan(&unflushed), &disk_);
  EXPECT_EQ(bad_scan.status().code(), StatusCode::kFailedPrecondition);
}

// Predicate-qualified join nodes run end-to-end through the service
// facade. σ kept on top to show the node composes like any other join.
TEST_F(GoldenPipelineTest, PredicateQualifiedJoinNode) {
  // contain-join: r[V] ⊇ s[V]. Only alice [0,10] ⊇ sales [0,7]
  // (started-by); the stamp is the intersection.
  TEMPO_ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      RunSequencedQuery(
          QueryPlan::Join(QueryPlan::Scan(r_.get()), QueryPlan::Scan(s_.get()),
                          TemporalPredicate::ContainJoin())
              .Project({"key", "name"}),
          &disk_));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual,
                             result.relation->ReadAll());
  EXPECT_TRUE(SameTupleMultiset(
      actual, {Tuple({Value(int64_t{1}), Value(std::string("alice"))},
                     Interval(0, 7))}));
}

// An adjacency predicate routes (via the planner) to the sweep executor
// inside the query pipeline.
TEST_F(GoldenPipelineTest, AdjacencyPredicateJoinNode) {
  auto r2 = MakeRelation(&disk_, TestSchema(), {T(7, "lead", 0, 9)}, "r2");
  auto s2 = MakeRelation(&disk_, SSchema(), {S(7, "next", 10, 20)}, "s2");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      RunSequencedQuery(
          QueryPlan::Join(QueryPlan::Scan(r2.get()), QueryPlan::Scan(s2.get()),
                          TemporalPredicate::Exactly(AllenRelation::kMeets)),
          &disk_));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual,
                             result.relation->ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, {J(7, "lead", "next", 0, 20)}));
}

// Non-default predicates are outside snapshot reducibility: the snapshot
// oracle refuses rather than silently checking the wrong semantics.
TEST_F(GoldenPipelineTest, SnapshotOracleRefusesPredicateJoins) {
  QueryPlan plan =
      QueryPlan::Join(QueryPlan::Scan(r_.get()), QueryPlan::Scan(s_.get()),
                      TemporalPredicate::ContainJoin());
  Status st = CheckSnapshotReducible(plan.root(), {}, 0, 1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(std::string(st.message()).find("snapshot reducible"),
            std::string::npos)
      << st.ToString();
}

TEST_F(GoldenPipelineTest, ExplainAnalyzeShowsOperatorTreeAndJoinKind) {
  ExplainOptions opts;
  opts.include_timing = false;
  {
    ExecContext ctx;
    TEMPO_ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        RunSequencedQuery(QueryPlan::Join(QueryPlan::Scan(r_.get()),
                                          QueryPlan::Scan(s_.get()),
                                          JoinKind::kLeftOuter)
                              .Project({"key", "name"}),
                          &disk_, QueryOptions{}, &ctx));
    EXPECT_EQ(result.output_tuples, 8u);
    const std::string text = ExplainAnalyze(ctx, opts);
    EXPECT_NE(text.find("sequenced query"), std::string::npos) << text;
    EXPECT_NE(text.find("join kind: left-outer"), std::string::npos) << text;
    // The swapped second pass belongs to the full outer only.
    EXPECT_EQ(text.find("outer pass"), std::string::npos) << text;
  }
  {
    ExecContext ctx;
    TEMPO_ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        RunSequencedQuery(QueryPlan::Join(QueryPlan::Scan(r_.get()),
                                          QueryPlan::Scan(s_.get()),
                                          JoinKind::kFullOuter),
                          &disk_, QueryOptions{}, &ctx));
    EXPECT_EQ(result.output_tuples, 11u);
    const std::string text = ExplainAnalyze(ctx, opts);
    EXPECT_NE(text.find("join kind: full-outer"), std::string::npos) << text;
    EXPECT_NE(text.find("outer pass"), std::string::npos) << text;
  }
}

// ---------------------------------------------------------------------
// The paged select, project and difference cover the in-memory operators
// they replace: each case asks for the rows the in-memory operator gave,
// with coalescing as an explicit PartitionCoalesce.
// ---------------------------------------------------------------------

StatusOr<std::vector<Tuple>> RunToRows(const QueryPlan& plan, Disk* disk) {
  TEMPO_ASSIGN_OR_RETURN(QueryResult result, RunSequencedQuery(plan, disk));
  return result.relation->ReadAll();
}

TEST(SelectTest, ArbitraryPredicate) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        {T(1, "a", 0, 1), T(5, "b", 0, 1)}, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      RunToRows(QueryPlan::Scan(r.get()).Select(
                    {"key", CompareOp::kGt, Value(int64_t{2})}),
                &disk));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value(0).AsInt64(), 5);
}

TEST(ProjectTest, DropsAttributesAndCoalesces) {
  // Distinct names with the same key become value-equivalent after
  // projecting to {key}: the projection keeps both rows, and coalescing
  // the projection merges them.
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        {T(1, "alice", 0, 4), T(1, "bob", 5, 9)}, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      QueryResult projected,
      RunSequencedQuery(QueryPlan::Scan(r.get()).Project({"key"}), &disk));
  EXPECT_EQ(projected.relation->schema().ToString(), "(key:int64)");
  EXPECT_EQ(projected.output_tuples, 2u);
  StoredRelation out(&disk, projected.relation->schema(), "out");
  TEMPO_ASSERT_OK(PartitionCoalesce(projected.relation.get(), &out,
                                    PartitionJoinOptions{})
                      .status());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, out.ReadAll());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].interval(), Interval(0, 9));
}

TEST(ProjectTest, OutOfRangeFails) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {}, "r");
  EXPECT_FALSE(
      RunSequencedQuery(QueryPlan::Scan(r.get()).Project({"nope"}), &disk)
          .ok());
}

TEST(VtDifferenceTest, SubtractsCoveredTime) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 10)}, "r");
  auto s = MakeRelation(&disk, TestSchema(), {T(1, "a", 3, 5)}, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      RunToRows(QueryPlan::Difference(QueryPlan::Scan(r.get()),
                                      QueryPlan::Scan(s.get())),
                &disk));
  EXPECT_TRUE(SameTupleMultiset(out, {T(1, "a", 0, 2), T(1, "a", 6, 10)}))
      << out.size() << " rows";
}

TEST(VtDifferenceTest, DifferentValuesUntouched) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 10)}, "r");
  auto s = MakeRelation(&disk, TestSchema(), {T(1, "b", 0, 10)}, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      RunToRows(QueryPlan::Difference(QueryPlan::Scan(r.get()),
                                      QueryPlan::Scan(s.get())),
                &disk));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval(), Interval(0, 10));
}

}  // namespace
}  // namespace tempo
