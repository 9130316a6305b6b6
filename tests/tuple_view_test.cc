// Zero-copy TupleView: record validation, value/hash/equality parity with
// owning tuples, and arena stability.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "relation/tuple_view.h"
#include "storage/page_arena.h"
#include "storage/stored_relation.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema MixedSchema() {
  return Schema({{"k", ValueType::kInt64},
                 {"s", ValueType::kString},
                 {"d", ValueType::kDouble}});
}

std::vector<Tuple> MixedTuples() {
  return {
      Tuple({Value(int64_t{7}), Value("alpha"), Value(1.5)}, Interval(0, 10)),
      Tuple({Value(int64_t{-3}), Value(""), Value(-0.0)}, Interval(5, 5)),
      Tuple({Value::Null(), Value("beta"), Value::Null()}, Interval(1, 2)),
      Tuple({Value(int64_t{0}), Value::Null(), Value(2.25)}, Interval(3, 9)),
      Tuple({Value::Null(), Value::Null(), Value::Null()}, Interval(0, 0)),
  };
}

std::string SerializeOne(const Schema& schema, const Tuple& t) {
  std::string rec;
  t.SerializeTo(schema, &rec);
  return rec;
}

TEST(TupleViewTest, MaterializeRoundTrips) {
  Schema schema = MixedSchema();
  for (const Tuple& t : MixedTuples()) {
    std::string rec = SerializeOne(schema, t);
    TEMPO_ASSERT_OK_AND_ASSIGN(
        TupleView v, TupleView::Make(schema.layout(), rec.data(), rec.size()));
    EXPECT_EQ(v.record(), rec);
    EXPECT_EQ(v.interval(), t.interval());
    EXPECT_EQ(v.Materialize(), t);
  }
}

TEST(TupleViewTest, AccessorsMatchOwningValues) {
  Schema schema = MixedSchema();
  Tuple t({Value(int64_t{42}), Value("hello world"), Value(-2.5)},
          Interval(100, 200));
  std::string rec = SerializeOne(schema, t);
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView v, TupleView::Make(schema.layout(), rec.data(), rec.size()));
  EXPECT_FALSE(v.is_null(0));
  EXPECT_FALSE(v.is_null(1));
  EXPECT_FALSE(v.is_null(2));
  EXPECT_EQ(v.Int64At(0), 42);
  EXPECT_EQ(v.StringAt(1), "hello world");
  EXPECT_EQ(v.DoubleAt(2), -2.5);
  EXPECT_EQ(v.ValueAt(0), t.value(0));
  EXPECT_EQ(v.ValueAt(1), t.value(1));
  EXPECT_EQ(v.ValueAt(2), t.value(2));

  Tuple with_nulls({Value::Null(), Value("x"), Value::Null()}, Interval(0, 1));
  std::string rec2 = SerializeOne(schema, with_nulls);
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView v2,
      TupleView::Make(schema.layout(), rec2.data(), rec2.size()));
  EXPECT_TRUE(v2.is_null(0));
  EXPECT_FALSE(v2.is_null(1));
  EXPECT_TRUE(v2.is_null(2));
  EXPECT_EQ(v2.StringAt(1), "x");
  EXPECT_TRUE(v2.ValueAt(0).is_null());
}

TEST(TupleViewTest, MakeRejectsCorruptRecords) {
  Schema schema = MixedSchema();
  const RecordLayout& layout = schema.layout();
  auto code_of = [&](const std::string& bytes, size_t size) {
    return TupleView::Make(layout, bytes.data(), size).status().code();
  };
  for (const Tuple& t : MixedTuples()) {
    std::string rec = SerializeOne(schema, t);

    // Every strict prefix.
    for (size_t cut = 0; cut < rec.size(); ++cut) {
      EXPECT_EQ(code_of(rec, cut), StatusCode::kCorruption)
          << "prefix length " << cut;
    }

    // Trailing garbage.
    std::string longer = rec + 'x';
    EXPECT_EQ(code_of(longer, longer.size()), StatusCode::kCorruption);

    // Inverted interval: Vs > Ve.
    std::string inverted = rec;
    int64_t vs = 99, ve = 1;
    std::memcpy(&inverted[0], &vs, 8);
    std::memcpy(&inverted[8], &ve, 8);
    EXPECT_EQ(code_of(inverted, inverted.size()), StatusCode::kCorruption);

    // Nonzero padding bit in the null bitmap (3 attrs -> bits 3..7 pad).
    std::string bad_pad = rec;
    bad_pad[RecordLayout::kBitmapOffset] |= char(0x80);
    EXPECT_EQ(code_of(bad_pad, bad_pad.size()), StatusCode::kCorruption);

    // The record itself parses.
    EXPECT_EQ(code_of(rec, rec.size()), StatusCode::kOk);
  }
}

TEST(TupleViewTest, HashParityWithTuple) {
  Schema schema = MixedSchema();
  const std::vector<std::vector<size_t>> position_sets = {
      {0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}, {2, 0}};
  for (const Tuple& t : MixedTuples()) {
    std::string rec = SerializeOne(schema, t);
    TEMPO_ASSERT_OK_AND_ASSIGN(
        TupleView v, TupleView::Make(schema.layout(), rec.data(), rec.size()));
    for (const auto& positions : position_sets) {
      EXPECT_EQ(v.HashAttrs(positions), t.HashAttrs(positions))
          << t.ToString();
    }
  }
}

TEST(TupleViewTest, EqualOnAttrsValueSemantics) {
  Schema schema = MixedSchema();
  Tuple a({Value(int64_t{1}), Value::Null(), Value(0.0)}, Interval(0, 1));
  Tuple b({Value(int64_t{1}), Value::Null(), Value(-0.0)}, Interval(5, 8));
  Tuple c({Value(int64_t{2}), Value::Null(), Value(0.0)}, Interval(0, 1));
  std::string ra = SerializeOne(schema, a);
  std::string rb = SerializeOne(schema, b);
  std::string rc = SerializeOne(schema, c);
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView va, TupleView::Make(schema.layout(), ra.data(), ra.size()));
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView vb, TupleView::Make(schema.layout(), rb.data(), rb.size()));
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView vc, TupleView::Make(schema.layout(), rc.data(), rc.size()));
  const std::vector<size_t> all = {0, 1, 2};
  // NULL == NULL and -0.0 == 0.0, matching Value::operator==.
  EXPECT_TRUE(va.EqualOnAttrs(all, all, vb));
  EXPECT_FALSE(va.EqualOnAttrs(all, all, vc));
  // Aligned-position remapping: compare our attr 0 with their attr 0 only.
  EXPECT_TRUE(va.EqualOnAttrs({0}, {0}, vc) == false);
  EXPECT_TRUE(va.EqualOnAttrs({2}, {2}, vc));
}

TEST(TupleViewTest, TrustedMatchesMake) {
  Schema schema = MixedSchema();
  for (const Tuple& t : MixedTuples()) {
    std::string rec = SerializeOne(schema, t);
    TupleView v = TupleView::Trusted(schema.layout(), rec.data(), rec.size());
    EXPECT_EQ(v.Materialize(), t);
  }
}

TEST(PageTupleArenaTest, ViewsStableAcrossGrowth) {
  Schema schema = MixedSchema();
  Disk disk;
  StoredRelation rel(&disk, schema, "arena");
  std::vector<Tuple> written;
  for (int i = 0; i < 2000; ++i) {
    std::vector<Value> vals;
    vals.emplace_back(static_cast<int64_t>(i));
    if (i % 4 == 0) {
      vals.push_back(Value::Null());
    } else {
      vals.emplace_back("s" + std::to_string(i));
    }
    vals.emplace_back(i * 0.5);
    written.push_back(Tuple(std::move(vals), Interval(i, i + 1)));
    TEMPO_ASSERT_OK(rel.Append(written.back()));
  }
  TEMPO_ASSERT_OK(rel.Flush());
  ASSERT_GT(rel.num_pages(), 4u);

  PageTupleArena arena;
  const char* first_record_data = nullptr;
  for (uint32_t p = 0; p < rel.num_pages(); ++p) {
    Page page;
    TEMPO_ASSERT_OK(rel.ReadPage(p, &page));
    TEMPO_ASSERT_OK_AND_ASSIGN(
        size_t n, StoredRelation::DecodePageViews(schema, page, &arena));
    EXPECT_EQ(n, page.num_records());
    if (p == 0) first_record_data = arena.views()[0].record().data();
  }
  // Growth must not move earlier pages: the first view still points at the
  // same bytes and still materializes correctly.
  EXPECT_EQ(arena.views()[0].record().data(), first_record_data);
  ASSERT_EQ(arena.views().size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    ASSERT_EQ(arena.views()[i].Materialize(), written[i]) << "view " << i;
  }
  arena.Clear();
  EXPECT_TRUE(arena.views().empty());
  EXPECT_EQ(arena.num_pages(), 0u);
}

TEST(PageTupleArenaTest, DecodePageViewsMatchesWrittenTuples) {
  Schema schema = TestSchema();
  Disk disk;
  Random rng(7);
  auto tuples = ::tempo::testing::RandomTuples(rng, 300, 50, 500, 0.2);
  auto rel = ::tempo::testing::MakeRelation(&disk, schema, tuples, "r");
  ASSERT_GT(rel->num_pages(), 1u);
  PageTupleArena arena;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    Page page;
    TEMPO_ASSERT_OK(rel->ReadPage(p, &page));
    TEMPO_ASSERT_OK_AND_ASSIGN(
        size_t n, StoredRelation::DecodePageViews(schema, page, &arena));
    EXPECT_EQ(n, rel->TuplesOnPage(p));
  }
  ASSERT_EQ(arena.views().size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(arena.views()[i].Materialize(), tuples[i]);
  }
}

/// One page filled with small TestSchema records.
Page FullPage() {
  const Schema schema = TestSchema();
  Page page;
  for (int64_t key = 0;; ++key) {
    std::string record;
    T(key, "x", key, key + 1).SerializeTo(schema, &record);
    if (!page.AddRecord(record).has_value()) return page;
  }
}

// Reserving exactly per page would reallocate on every one of the 1,000
// pages (libstdc++'s reserve is exact) and copy every earlier element each
// time; geometric growth reallocates O(log rows) times.
TEST(PageTupleArenaTest, ViewsGrowGeometricallyAcrossPages) {
  const Schema schema = TestSchema();
  const Page page = FullPage();
  constexpr int kPages = 1000;
  PageTupleArena arena;
  int growths = 0;
  for (int p = 0; p < kPages; ++p) {
    const size_t cap = arena.views().capacity();
    TEMPO_ASSERT_OK_AND_ASSIGN(size_t added, arena.AddPage(schema, page));
    ASSERT_EQ(added, page.num_records());
    growths += arena.views().capacity() != cap;
  }
  const size_t rows = arena.views().size();
  ASSERT_EQ(rows, static_cast<size_t>(kPages) * page.num_records());
  EXPECT_LE(growths, 2 * std::log2(static_cast<double>(rows)) + 4);
}

}  // namespace
}  // namespace tempo
