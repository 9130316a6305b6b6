#include <map>

#include <gtest/gtest.h>

#include "query/temporal_aggregate.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

// Schema for numeric aggregation: (key, amount).
Schema NumSchema() {
  return Schema({{"key", ValueType::kInt64}, {"amount", ValueType::kInt64}});
}

Tuple N(int64_t key, int64_t amount, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(amount)}, Interval(vs, ve));
}

TEST(TemporalAggregateTest, CountBasic) {
  std::vector<Tuple> in{N(1, 0, 0, 4), N(1, 0, 2, 6)};
  AggregationSpec spec;
  spec.fn = AggregateFn::kCount;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto result,
                             TemporalAggregate(NumSchema(), in, spec));
  // (1)@[0,1], (2)@[2,4], (1)@[5,6]
  ASSERT_EQ(result.second.size(), 3u);
  EXPECT_EQ(result.second[0], Tuple({Value(int64_t{1})}, Interval(0, 1)));
  EXPECT_EQ(result.second[1], Tuple({Value(int64_t{2})}, Interval(2, 4)));
  EXPECT_EQ(result.second[2], Tuple({Value(int64_t{1})}, Interval(5, 6)));
  EXPECT_EQ(result.first.ToString(), "(count:int64)");
}

TEST(TemporalAggregateTest, GapsProduceNoOutput) {
  std::vector<Tuple> in{N(1, 0, 0, 2), N(1, 0, 10, 12)};
  AggregationSpec spec;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto result,
                             TemporalAggregate(NumSchema(), in, spec));
  ASSERT_EQ(result.second.size(), 2u);
  EXPECT_EQ(result.second[0].interval(), Interval(0, 2));
  EXPECT_EQ(result.second[1].interval(), Interval(10, 12));
}

TEST(TemporalAggregateTest, SumMergesEqualSegments) {
  // Two tuples handing over at the same value: [0,4]@5 then [5,9]@5 —
  // the sum is constantly 5, one segment.
  std::vector<Tuple> in{N(1, 5, 0, 4), N(1, 5, 5, 9)};
  AggregationSpec spec;
  spec.fn = AggregateFn::kSum;
  spec.value_attr = 1;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto result,
                             TemporalAggregate(NumSchema(), in, spec));
  ASSERT_EQ(result.second.size(), 1u);
  EXPECT_EQ(result.second[0], Tuple({Value(int64_t{5})}, Interval(0, 9)));
}

TEST(TemporalAggregateTest, MinMaxTrackActiveSet) {
  std::vector<Tuple> in{N(1, 10, 0, 9), N(1, 3, 2, 5), N(1, 7, 4, 6)};
  AggregationSpec min_spec;
  min_spec.fn = AggregateFn::kMin;
  min_spec.value_attr = 1;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto mins,
                             TemporalAggregate(NumSchema(), in, min_spec));
  // min: 10@[0,1], 3@[2,5], 7@[6,6], 10@[7,9]
  ASSERT_EQ(mins.second.size(), 4u);
  EXPECT_EQ(mins.second[0], Tuple({Value(int64_t{10})}, Interval(0, 1)));
  EXPECT_EQ(mins.second[1], Tuple({Value(int64_t{3})}, Interval(2, 5)));
  EXPECT_EQ(mins.second[2], Tuple({Value(int64_t{7})}, Interval(6, 6)));
  EXPECT_EQ(mins.second[3], Tuple({Value(int64_t{10})}, Interval(7, 9)));

  AggregationSpec max_spec;
  max_spec.fn = AggregateFn::kMax;
  max_spec.value_attr = 1;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto maxs,
                             TemporalAggregate(NumSchema(), in, max_spec));
  // max is 10 throughout [0,9].
  ASSERT_EQ(maxs.second.size(), 1u);
  EXPECT_EQ(maxs.second[0], Tuple({Value(int64_t{10})}, Interval(0, 9)));
}

TEST(TemporalAggregateTest, GroupBySeparatesSeries) {
  std::vector<Tuple> in{N(1, 2, 0, 5), N(2, 9, 0, 5), N(1, 2, 6, 9)};
  AggregationSpec spec;
  spec.fn = AggregateFn::kSum;
  spec.value_attr = 1;
  spec.group_by = {0};
  TEMPO_ASSERT_OK_AND_ASSIGN(auto result,
                             TemporalAggregate(NumSchema(), in, spec));
  EXPECT_EQ(result.first.ToString(), "(key:int64, sum:int64)");
  std::map<int64_t, int> per_key;
  for (const Tuple& t : result.second) ++per_key[t.value(0).AsInt64()];
  EXPECT_EQ(per_key[1], 1);  // constant sum 2 over [0,9]
  EXPECT_EQ(per_key[2], 1);
}

TEST(TemporalAggregateTest, EmptyInput) {
  AggregationSpec spec;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto result,
                             TemporalAggregate(NumSchema(), {}, spec));
  EXPECT_TRUE(result.second.empty());
}

TEST(TemporalAggregateTest, RejectsBadSpecs) {
  AggregationSpec spec;
  spec.fn = AggregateFn::kSum;
  spec.value_attr = 9;
  EXPECT_FALSE(TemporalAggregate(NumSchema(), {}, spec).ok());
  spec.value_attr = 1;
  spec.group_by = {7};
  EXPECT_FALSE(TemporalAggregate(NumSchema(), {}, spec).ok());
  // Non-int64 aggregate attribute.
  AggregationSpec str_spec;
  str_spec.fn = AggregateFn::kSum;
  str_spec.value_attr = 1;
  EXPECT_FALSE(TemporalAggregate(TestSchema(), {}, str_spec).ok());
}

// As in SQL, kSum/kMin/kMax skip a NULL aggregated value (e.g. the padded
// side of an outer-join result): a stretch covered only by NULLs yields
// no row. kCount still counts the tuple.
TEST(TemporalAggregateTest, NullValuesAreSkipped) {
  std::vector<Tuple> in{N(1, 5, 0, 9),
                        Tuple({Value(int64_t{1}), Value::Null()},
                              Interval(5, 14))};
  for (AggregateFn fn :
       {AggregateFn::kSum, AggregateFn::kMin, AggregateFn::kMax}) {
    AggregationSpec spec;
    spec.fn = fn;
    spec.value_attr = 1;
    TEMPO_ASSERT_OK_AND_ASSIGN(auto result,
                               TemporalAggregate(NumSchema(), in, spec));
    ASSERT_EQ(result.second.size(), 1u) << AggregateFnName(fn);
    EXPECT_EQ(result.second[0], Tuple({Value(int64_t{5})}, Interval(0, 9)))
        << AggregateFnName(fn);
  }
  AggregationSpec count;
  count.value_attr = 1;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto result,
                             TemporalAggregate(NumSchema(), in, count));
  ASSERT_EQ(result.second.size(), 3u);
  EXPECT_EQ(result.second[0], Tuple({Value(int64_t{1})}, Interval(0, 4)));
  EXPECT_EQ(result.second[1], Tuple({Value(int64_t{2})}, Interval(5, 9)));
  EXPECT_EQ(result.second[2], Tuple({Value(int64_t{1})}, Interval(10, 14)));
}

// Property: the sweep agrees with a per-chronon brute force over a small
// universe, for every aggregate function.
class AggregatePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregatePropertyTest, MatchesBruteForce) {
  constexpr Chronon kUniverse = 50;
  Random rng(GetParam());
  std::vector<Tuple> in;
  size_t n = 3 + rng.Uniform(20);
  for (size_t i = 0; i < n; ++i) {
    Chronon s = rng.UniformRange(0, kUniverse - 1);
    Chronon e = std::min<Chronon>(kUniverse - 1, s + rng.UniformRange(0, 15));
    in.push_back(N(static_cast<int64_t>(rng.Uniform(3)),
                   rng.UniformRange(-5, 20), s, e));
  }
  for (AggregateFn fn : {AggregateFn::kCount, AggregateFn::kSum,
                         AggregateFn::kMin, AggregateFn::kMax}) {
    AggregationSpec spec;
    spec.fn = fn;
    spec.value_attr = 1;
    spec.group_by = {0};
    TEMPO_ASSERT_OK_AND_ASSIGN(auto result,
                               TemporalAggregate(NumSchema(), in, spec));
    // Brute force per (key, chronon).
    for (int64_t key = 0; key < 3; ++key) {
      for (Chronon t = 0; t < kUniverse; ++t) {
        int64_t count = 0, sum = 0;
        int64_t mn = INT64_MAX, mx = INT64_MIN;
        for (const Tuple& tup : in) {
          if (tup.value(0).AsInt64() != key || !tup.interval().Contains(t)) {
            continue;
          }
          ++count;
          int64_t v = tup.value(1).AsInt64();
          sum += v;
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
        // The sweep's value at (key, t), if any.
        std::optional<int64_t> swept;
        for (const Tuple& seg : result.second) {
          if (seg.value(0).AsInt64() == key && seg.interval().Contains(t)) {
            ASSERT_FALSE(swept.has_value()) << "overlapping segments";
            swept = seg.value(1).AsInt64();
          }
        }
        if (count == 0) {
          EXPECT_FALSE(swept.has_value())
              << "key " << key << " t " << t << " fn "
              << AggregateFnName(fn);
          continue;
        }
        ASSERT_TRUE(swept.has_value())
            << "key " << key << " t " << t << " fn " << AggregateFnName(fn);
        int64_t expected = 0;
        switch (fn) {
          case AggregateFn::kCount:
            expected = count;
            break;
          case AggregateFn::kSum:
            expected = sum;
            break;
          case AggregateFn::kMin:
            expected = mn;
            break;
          case AggregateFn::kMax:
            expected = mx;
            break;
        }
        EXPECT_EQ(*swept, expected)
            << "key " << key << " t " << t << " fn " << AggregateFnName(fn);
      }
    }
    // Segments are maximal: adjacent same-key segments differ in value or
    // have a gap.
    for (size_t i = 1; i < result.second.size(); ++i) {
      const Tuple& a = result.second[i - 1];
      const Tuple& b = result.second[i];
      if (a.value(0) != b.value(0)) continue;
      if (a.interval().Meets(b.interval())) {
        EXPECT_NE(a.value(1), b.value(1)) << "non-maximal segments";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregatePropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace tempo
