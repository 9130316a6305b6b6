#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/partition_coalesce.h"
#include "join/reference_join.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

// ---------------------------------------------------------------------
// The in-memory coalescing and timeslice oracles
// ---------------------------------------------------------------------

TEST(CoalesceTest, MergesAdjacentValueEquivalentTuples) {
  std::vector<Tuple> in{T(1, "a", 0, 4), T(1, "a", 5, 9), T(1, "a", 20, 25)};
  std::vector<Tuple> out = ReferenceCoalesce(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].interval(), Interval(0, 9));
  EXPECT_EQ(out[1].interval(), Interval(20, 25));
}

TEST(CoalesceTest, MergesOverlapping) {
  std::vector<Tuple> in{T(1, "a", 0, 10), T(1, "a", 5, 20)};
  std::vector<Tuple> out = ReferenceCoalesce(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval(), Interval(0, 20));
}

TEST(CoalesceTest, KeepsDistinctValuesApart) {
  std::vector<Tuple> in{T(1, "a", 0, 10), T(1, "b", 5, 20), T(2, "a", 0, 10)};
  std::vector<Tuple> out = ReferenceCoalesce(in);
  EXPECT_EQ(out.size(), 3u);
}

TEST(CoalesceTest, Idempotent) {
  Random rng(3);
  std::vector<Tuple> in = RandomTuples(rng, 200, 5, 100, 0.4);
  std::vector<Tuple> once = ReferenceCoalesce(in);
  std::vector<Tuple> twice = ReferenceCoalesce(once);
  EXPECT_TRUE(SameTupleMultiset(once, twice));
}

TEST(CoalesceTest, PreservesSnapshots) {
  // Snapshot equivalence: the timeslice at every chronon is unchanged.
  Random rng(4);
  std::vector<Tuple> in = RandomTuples(rng, 100, 4, 60, 0.5);
  std::vector<Tuple> out = ReferenceCoalesce(in);
  for (Chronon t = 0; t < 60; t += 7) {
    // Compare value multisets at time t (duplicates collapse under
    // coalescing, so compare *sets* of values).
    auto values_at = [t](const std::vector<Tuple>& rel) {
      std::set<std::string> vals;
      for (const Tuple& tup : Timeslice(rel, t)) {
        std::string key;
        for (const Value& v : tup.values()) key += v.ToString() + "|";
        vals.insert(key);
      }
      return vals;
    };
    EXPECT_EQ(values_at(in), values_at(out)) << "at chronon " << t;
  }
}

TEST(TimesliceTest, PicksValidTuples) {
  std::vector<Tuple> in{T(1, "a", 0, 5), T(2, "b", 3, 8), T(3, "c", 6, 9)};
  std::vector<Tuple> out = Timeslice(in, 4);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].interval(), Interval::At(4));
  EXPECT_EQ(out[0].value(0).AsInt64(), 1);
  EXPECT_EQ(out[1].value(0).AsInt64(), 2);
}

// ---------------------------------------------------------------------
// PartitionCoalesce
// ---------------------------------------------------------------------


TEST(PartitionCoalesceTest, MergesAcrossPartitionBoundaries) {
  Disk disk;
  // Two abutting fragments of the same fact, plus noise, forced into
  // several partitions: the fragments must merge even when they land in
  // different partitions.
  std::vector<Tuple> tuples{T(1, "a", 0, 49),   T(1, "a", 50, 99),
                            T(2, "b", 10, 20),  T(2, "b", 60, 70),
                            T(1, "a", 200, 220)};
  auto in = MakeRelation(&disk, TestSchema(), tuples, "in");
  StoredRelation out(&disk, TestSchema(), "out");
  PartitionJoinOptions options;
  options.buffer_pages = 8;
  options.forced_num_partitions = 3;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionCoalesce(in.get(), &out, options));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> result, out.ReadAll());
  std::vector<Tuple> expected = ReferenceCoalesce(tuples);
  EXPECT_TRUE(SameTupleMultiset(result, expected));
  EXPECT_EQ(stats.output_tuples, expected.size());
}

TEST(PartitionCoalesceTest, SinglePartitionPath) {
  Disk disk;
  std::vector<Tuple> tuples{T(1, "a", 0, 5), T(1, "a", 6, 10)};
  auto in = MakeRelation(&disk, TestSchema(), tuples, "in");
  StoredRelation out(&disk, TestSchema(), "out");
  PartitionJoinOptions options;
  options.buffer_pages = 1024;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionCoalesce(in.get(), &out, options));
  EXPECT_EQ(stats.Get(Metric::kPartitions), 1.0);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> result, out.ReadAll());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].interval(), Interval(0, 10));
}

TEST(PartitionCoalesceTest, SchemaMismatchRejected) {
  Disk disk;
  auto in = MakeRelation(&disk, TestSchema(), {}, "in");
  Schema other({{"x", ValueType::kInt64}});
  StoredRelation out(&disk, other, "out");
  PartitionJoinOptions options;
  EXPECT_FALSE(PartitionCoalesce(in.get(), &out, options).ok());
}

// PartitionCoalesce of `tuples` on a fresh disk, forced into `partitions`
// partitions (0: the optimizer's choice, one partition for inputs this
// small).
StatusOr<std::vector<Tuple>> PagedCoalesce(const Schema& schema,
                                           const std::vector<Tuple>& tuples,
                                           uint32_t partitions) {
  Disk disk;
  auto in = MakeRelation(&disk, schema, tuples, "in");
  StoredRelation out(&disk, schema, "out");
  PartitionJoinOptions options;
  options.buffer_pages = 8;
  options.forced_num_partitions = partitions;
  TEMPO_RETURN_IF_ERROR(PartitionCoalesce(in.get(), &out, options).status());
  return out.ReadAll();
}

// Requires the coalescing oracle and PartitionCoalesce (one partition and
// three) to return `tuples` unchanged: their values all differ, and value
// groups are keyed by the values, not by their printed form.
void ExpectKeptApart(const Schema& schema, const std::vector<Tuple>& tuples) {
  EXPECT_TRUE(SameTupleMultiset(ReferenceCoalesce(tuples), tuples));
  for (uint32_t partitions : {0u, 3u}) {
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> result,
                               PagedCoalesce(schema, tuples, partitions));
    EXPECT_TRUE(SameTupleMultiset(result, tuples))
        << partitions << " partitions";
  }
}

TEST(PartitionCoalesceTest, KeepsNearlyEqualDoublesApart) {
  // Both doubles print as 1 under %g.
  Schema schema({{"key", ValueType::kInt64}, {"x", ValueType::kDouble}});
  ExpectKeptApart(
      schema, {Tuple({Value(int64_t{1}), Value(1.0000001)}, Interval(0, 4)),
               Tuple({Value(int64_t{1}), Value(1.0000002)}, Interval(5, 9))});
}

TEST(PartitionCoalesceTest, KeepsStringsThatPrintAlikeApart) {
  // Each string printed in quotes and followed by '\x1f', both pairs read
  // "x"␟"y"␟"z"␟.
  Schema schema({{"a", ValueType::kString}, {"b", ValueType::kString}});
  ExpectKeptApart(schema,
                  {Tuple({Value("x\"\x1f\"y"), Value("z")}, Interval(0, 4)),
                   Tuple({Value("x"), Value("y\"\x1f\"z")}, Interval(5, 9))});
}

TEST(PartitionCoalesceTest, GroupsNaNApartFromNumbers) {
  // NaN compares false against every double, so an order that used plain
  // `<` would put (1, 1.0) in the NaN group and merge all three rows.
  const double nan = std::nan("");
  Schema schema({{"key", ValueType::kInt64}, {"x", ValueType::kDouble}});
  std::vector<Tuple> tuples{
      Tuple({Value(int64_t{1}), Value(nan)}, Interval(0, 4)),
      Tuple({Value(int64_t{1}), Value(1.0)}, Interval(5, 9)),
      Tuple({Value(int64_t{1}), Value(nan)}, Interval(5, 9))};
  const std::vector<Tuple> expected{
      Tuple({Value(int64_t{1}), Value(nan)}, Interval(0, 9)),
      Tuple({Value(int64_t{1}), Value(1.0)}, Interval(5, 9))};
  EXPECT_TRUE(SameTupleMultiset(ReferenceCoalesce(tuples), expected));
  for (uint32_t partitions : {0u, 3u}) {
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> result,
                               PagedCoalesce(schema, tuples, partitions));
    EXPECT_TRUE(SameTupleMultiset(result, expected));
  }
}

struct CoalesceCase {
  uint32_t buffer_pages;
  uint32_t forced_partitions;
  double long_lived_prob;
  uint64_t seed;
};

class PartitionCoalesceOracleTest
    : public ::testing::TestWithParam<CoalesceCase> {};

TEST_P(PartitionCoalesceOracleTest, MatchesInMemoryCoalesce) {
  const CoalesceCase& c = GetParam();
  Random rng(c.seed);
  // Few distinct values and a dense chronon range so runs frequently abut
  // and span partition boundaries.
  std::vector<Tuple> tuples;
  for (const Tuple& t : RandomTuples(rng, 600, 8, 200, c.long_lived_prob)) {
    tuples.push_back(T(t.value(0).AsInt64(), "v", t.interval().start(),
                       t.interval().end()));
  }
  Disk disk;
  auto in = MakeRelation(&disk, TestSchema(), tuples, "in");
  StoredRelation out(&disk, TestSchema(), "out");
  PartitionJoinOptions options;
  options.buffer_pages = c.buffer_pages;
  options.forced_num_partitions = c.forced_partitions;
  options.seed = c.seed;
  TEMPO_ASSERT_OK(PartitionCoalesce(in.get(), &out, options).status());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> result, out.ReadAll());
  std::vector<Tuple> expected = ReferenceCoalesce(tuples);
  EXPECT_TRUE(SameTupleMultiset(result, expected))
      << "got " << result.size() << ", want " << expected.size();
  // Output must itself be coalesced (idempotence).
  EXPECT_TRUE(SameTupleMultiset(ReferenceCoalesce(result), result));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionCoalesceOracleTest,
    ::testing::Values(CoalesceCase{6, 0, 0.1, 1}, CoalesceCase{6, 0, 0.6, 2},
                      CoalesceCase{8, 5, 0.3, 3}, CoalesceCase{12, 9, 0.0, 4},
                      CoalesceCase{16, 2, 0.5, 5},
                      CoalesceCase{512, 0, 0.3, 6}),
    [](const ::testing::TestParamInfo<CoalesceCase>& info) {
      const CoalesceCase& c = info.param;
      return "b" + std::to_string(c.buffer_pages) + "_f" +
             std::to_string(c.forced_partitions) + "_ll" +
             std::to_string(static_cast<int>(c.long_lived_prob * 10)) +
             "_s" + std::to_string(c.seed);
    });

// Inputs whose plan has one partition, at buffers 4, 8 and 16: 2,000
// tuples all stamped [5, 5], which are sampled and collapse to one
// partition, and an input of at most buffSize - 3 pages, which is not
// sampled. The one-partition loop folds the input itself.
TEST(PartitionCoalesceTest, OnePartitionPlansMatchReferenceCoalesce) {
  for (uint32_t buffer : {4u, 8u, 16u}) {
    Random rng(93);
    std::vector<Tuple> collapsed;
    for (int i = 0; i < 2000; ++i) {
      collapsed.push_back(T(static_cast<int64_t>(rng.Uniform(400)),
                            "v" + std::to_string(i % 3), 5, 5));
    }
    std::vector<Tuple> fitting;
    for (const Tuple& t :
         RandomTuples(rng, 60 * (buffer - 3), 8, 100, 0.3)) {
      fitting.push_back(T(t.value(0).AsInt64(), "v", t.interval().start(),
                          t.interval().end()));
    }
    for (const std::vector<Tuple>* tuples : {&collapsed, &fitting}) {
      const std::string label =
          std::string(tuples == &collapsed ? "collapsed" : "fitting") +
          " buffer " + std::to_string(buffer);
      Disk disk;
      auto in = MakeRelation(&disk, TestSchema(), *tuples, "in");
      if (tuples == &collapsed) {
        ASSERT_GT(in->num_pages(), buffer - 3) << label;
      } else {
        ASSERT_LE(in->num_pages(), buffer - 3) << label;
      }
      StoredRelation out(&disk, TestSchema(), "out");
      PartitionJoinOptions options;
      options.buffer_pages = buffer;
      TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                                 PartitionCoalesce(in.get(), &out, options));
      EXPECT_EQ(stats.Get(Metric::kPartitions), 1.0) << label;
      TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> result, out.ReadAll());
      EXPECT_TRUE(SameTupleMultiset(result, ReferenceCoalesce(*tuples)))
          << label;
    }
  }
}

}  // namespace
}  // namespace tempo
