#include <gtest/gtest.h>

#include "relation/schema.h"
#include "relation/tuple.h"
#include "relation/value.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::ParseRecord;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

// ---------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("hi").type(), ValueType::kString);
  EXPECT_EQ(Value(int64_t{5}).AsInt64(), 5);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, EqualityIsTypeAware) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));
  EXPECT_NE(Value(int64_t{1}), Value("1"));
}

TEST(ValueTest, HashDistinguishesTypes) {
  EXPECT_NE(Value(int64_t{0}).Hash(), Value(0.0).Hash());
}

TEST(ValueTest, HashEqualForEqualValues) {
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_EQ(Value(int64_t{42}).Hash(), Value(int64_t{42}).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
}

// ---------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------

TEST(SchemaTest, MakeRejectsDuplicates) {
  auto bad = Schema::Make({{"a", ValueType::kInt64}, {"a", ValueType::kString}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, IndexOf) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(s.IndexOf("a"), 0u);
  EXPECT_EQ(s.IndexOf("b"), 1u);
  EXPECT_FALSE(s.IndexOf("c").has_value());
}

TEST(SchemaTest, ToString) {
  Schema s({{"a", ValueType::kInt64}});
  EXPECT_EQ(s.ToString(), "(a:int64)");
}

// ---------------------------------------------------------------------
// Natural-join layout derivation
// ---------------------------------------------------------------------

TEST(NaturalJoinLayoutTest, SharedAttributeBecomesJoinKey) {
  Schema r({{"id", ValueType::kInt64}, {"salary", ValueType::kDouble}});
  Schema s({{"id", ValueType::kInt64}, {"dept", ValueType::kString}});
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r, s));
  ASSERT_EQ(layout.r_join_attrs.size(), 1u);
  EXPECT_EQ(layout.r_join_attrs[0], 0u);
  EXPECT_EQ(layout.s_join_attrs[0], 0u);
  ASSERT_EQ(layout.r_rest.size(), 1u);
  EXPECT_EQ(layout.r_rest[0], 1u);
  ASSERT_EQ(layout.s_rest.size(), 1u);
  EXPECT_EQ(layout.s_rest[0], 1u);
  EXPECT_EQ(layout.output.ToString(), "(id:int64, salary:double, dept:string)");
}

TEST(NaturalJoinLayoutTest, MultipleSharedAttributes) {
  Schema r({{"a", ValueType::kInt64},
            {"b", ValueType::kString},
            {"x", ValueType::kDouble}});
  Schema s({{"b", ValueType::kString},
            {"y", ValueType::kDouble},
            {"a", ValueType::kInt64}});
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r, s));
  ASSERT_EQ(layout.r_join_attrs.size(), 2u);
  // Pairwise alignment: r[0]="a" <-> s[2]="a", r[1]="b" <-> s[0]="b".
  EXPECT_EQ(layout.r_join_attrs[0], 0u);
  EXPECT_EQ(layout.s_join_attrs[0], 2u);
  EXPECT_EQ(layout.r_join_attrs[1], 1u);
  EXPECT_EQ(layout.s_join_attrs[1], 0u);
  EXPECT_EQ(layout.output.num_attributes(), 4u);
}

TEST(NaturalJoinLayoutTest, TypeMismatchFails) {
  Schema r({{"id", ValueType::kInt64}});
  Schema s({{"id", ValueType::kString}});
  auto layout = DeriveNaturalJoinLayout(r, s);
  EXPECT_FALSE(layout.ok());
  EXPECT_EQ(layout.status().code(), StatusCode::kInvalidArgument);
}

TEST(NaturalJoinLayoutTest, DisjointSchemasDegenerateToTimeJoin) {
  Schema r({{"a", ValueType::kInt64}});
  Schema s({{"b", ValueType::kInt64}});
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r, s));
  EXPECT_TRUE(layout.r_join_attrs.empty());
  EXPECT_EQ(layout.output.num_attributes(), 2u);
}

// ---------------------------------------------------------------------
// Tuple
// ---------------------------------------------------------------------

TEST(TupleTest, AccessorsAndEquality) {
  Tuple t = T(1, "a", 0, 5);
  EXPECT_EQ(t.num_values(), 2u);
  EXPECT_EQ(t.value(0).AsInt64(), 1);
  EXPECT_EQ(t.interval(), Interval(0, 5));
  EXPECT_EQ(t, T(1, "a", 0, 5));
  EXPECT_NE(t, T(1, "a", 0, 6));
  EXPECT_NE(t, T(2, "a", 0, 5));
}

TEST(TupleTest, ValueEquivalenceIgnoresTime) {
  EXPECT_TRUE(T(1, "a", 0, 5).ValueEquivalent(T(1, "a", 9, 12)));
  EXPECT_FALSE(T(1, "a", 0, 5).ValueEquivalent(T(1, "b", 0, 5)));
}

TEST(TupleTest, EqualOnAttrsAligned) {
  Tuple x({Value(int64_t{1}), Value("z")}, Interval(0, 1));
  Tuple y({Value("z"), Value(int64_t{1})}, Interval(5, 6));
  EXPECT_TRUE(x.EqualOnAttrs({0, 1}, {1, 0}, y));
  EXPECT_FALSE(x.EqualOnAttrs({0, 1}, {0, 1}, y));
}

TEST(TupleTest, SerializationRoundTrip) {
  Schema schema({{"k", ValueType::kInt64},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString}});
  Tuple t({Value(int64_t{-42}), Value(3.25), Value("hello world")},
          Interval(-10, 999));
  std::string buf;
  t.SerializeTo(schema, &buf);
  EXPECT_EQ(buf.size(), t.SerializedSize(schema));
  TEMPO_ASSERT_OK_AND_ASSIGN(Tuple back, ParseRecord(schema, buf));
  EXPECT_EQ(back, t);
}

TEST(TupleTest, SerializationEmptyString) {
  Schema schema({{"s", ValueType::kString}});
  Tuple t({Value("")}, Interval(0, 0));
  std::string buf;
  t.SerializeTo(schema, &buf);
  TEMPO_ASSERT_OK_AND_ASSIGN(Tuple back, ParseRecord(schema, buf));
  EXPECT_EQ(back, t);
}

// The record parser is TupleView::Make; the names below predate it.
TEST(TupleTest, DeserializeRejectsTruncation) {
  Schema schema({{"k", ValueType::kInt64}});
  Tuple t({Value(int64_t{1})}, Interval(0, 0));
  std::string buf;
  t.SerializeTo(schema, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    auto result = TupleView::Make(schema.layout(), buf.data(), cut);
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(TupleTest, DeserializeRejectsTrailingBytes) {
  Schema schema({{"k", ValueType::kInt64}});
  Tuple t({Value(int64_t{1})}, Interval(0, 0));
  std::string buf;
  t.SerializeTo(schema, &buf);
  buf.push_back('\0');
  EXPECT_EQ(ParseRecord(schema, buf).status().code(), StatusCode::kCorruption);
}

TEST(TupleTest, DeserializeRejectsInvalidInterval) {
  Schema schema({{"k", ValueType::kInt64}});
  // Hand-craft a record with start > end.
  std::string buf;
  Tuple good({Value(int64_t{1})}, Interval(5, 9));
  good.SerializeTo(schema, &buf);
  // Swap start/end: bytes [0,8) and [8,16).
  std::string swapped = buf.substr(8, 8) + buf.substr(0, 8) + buf.substr(16);
  EXPECT_EQ(ParseRecord(schema, swapped).status().code(),
            StatusCode::kCorruption);
}

TEST(TupleTest, HashAttrsConsistent) {
  Tuple a = T(7, "x", 0, 1);
  Tuple b = T(7, "y", 5, 9);
  std::vector<size_t> key{0};
  EXPECT_EQ(a.HashAttrs(key), b.HashAttrs(key));
}

TEST(TupleTest, ToStringMentionsValuesAndInterval) {
  std::string s = T(3, "n", 1, 4).ToString();
  EXPECT_NE(s.find("3"), std::string::npos);
  EXPECT_NE(s.find("[1, 4]"), std::string::npos);
}

TEST(NullValueTest, SerializationRoundTripWithNulls) {
  Schema schema({{"a", ValueType::kInt64},
                 {"b", ValueType::kString},
                 {"c", ValueType::kDouble}});
  Tuple t({Value(int64_t{5}), Value::Null(), Value::Null()}, Interval(0, 3));
  std::string buf;
  t.SerializeTo(schema, &buf);
  EXPECT_EQ(buf.size(), t.SerializedSize(schema));
  TEMPO_ASSERT_OK_AND_ASSIGN(Tuple back,
                             ::tempo::testing::ParseRecord(schema, buf));
  EXPECT_EQ(back, t);
  EXPECT_TRUE(back.value(1).is_null());
  EXPECT_TRUE(back.value(2).is_null());
  EXPECT_EQ(back.value(0).AsInt64(), 5);
}

TEST(NullValueTest, NullEqualityAndPrinting) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_FALSE(Value(int64_t{0}).is_null());
}

}  // namespace
}  // namespace tempo
