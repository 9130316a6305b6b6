// Tests for the flat build-side kernel (join/build_area.h): BuildArea's
// validated copy, purge and byte accounting, and FlatIndex's match order,
// which must equal HashedTupleIndex's so executors keep their output bytes.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "join/build_area.h"
#include "service/join_request.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

/// Packs `tuples` into as few pages as they fit.
std::vector<Page> Paginate(const Schema& schema,
                           const std::vector<Tuple>& tuples) {
  std::vector<Page> pages(1);
  for (const Tuple& t : tuples) {
    std::string rec;
    t.SerializeTo(schema, &rec);
    if (!pages.back().AddRecord(rec).has_value()) {
      pages.emplace_back();
      EXPECT_TRUE(pages.back().AddRecord(rec).has_value());
    }
  }
  return pages;
}

Status FillArea(BuildArea* area, const std::vector<Page>& pages) {
  for (const Page& page : pages) TEMPO_RETURN_IF_ERROR(area->AddPage(page));
  return Status::OK();
}

/// Three key attributes — int64, string, double — drawn from tiny domains
/// (heavy duplication), each NULL one time in five; the double domain
/// holds both -0.0 and 0.0, which compare and hash equal.
Schema KeySchema() {
  return Schema({{"k", ValueType::kInt64},
                 {"t", ValueType::kString},
                 {"d", ValueType::kDouble},
                 {"pad", ValueType::kString}});
}

std::vector<Tuple> KeyTuples(Random& rng, size_t n) {
  auto maybe_null = [&rng](Value v) {
    return rng.Uniform(5) == 0 ? Value::Null() : v;
  };
  const double doubles[] = {-0.0, 0.0, 1.5, -2.25};
  std::vector<Tuple> out;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    values.push_back(maybe_null(Value(static_cast<int64_t>(rng.Uniform(3)))));
    values.push_back(
        maybe_null(Value(std::string(rng.Uniform(3), 'x'))));  // "" too
    values.push_back(maybe_null(Value(doubles[rng.Uniform(4)])));
    values.push_back(Value("row" + std::to_string(i)));
    Chronon start = rng.UniformRange(0, 100);
    out.push_back(
        Tuple(std::move(values), Interval(start, start + rng.Uniform(20))));
  }
  return out;
}

TEST(FlatIndexTest, MatchOrderEqualsHashedTupleIndex) {
  const Schema schema = KeySchema();
  const std::vector<std::vector<size_t>> key_sets = {{0}, {1}, {2}, {0, 1, 2}};
  for (uint64_t seed : {1u, 2u, 3u}) {
    Random rng(seed);
    const std::vector<Tuple> build = KeyTuples(rng, 700);
    const std::vector<Tuple> probes = KeyTuples(rng, 200);
    const std::vector<Page> pages = Paginate(schema, build);
    for (const std::vector<size_t>& keys : key_sets) {
      BuildArea area(&schema, &keys);
      TEMPO_ASSERT_OK(FillArea(&area, pages));
      ASSERT_EQ(area.size(), build.size());
      // The whole area, and an overflow-chunk-style row range in place.
      for (auto [begin, end] : {std::pair<size_t, size_t>{0, build.size()},
                                std::pair<size_t, size_t>{150, 420}}) {
        FlatIndex flat;
        flat.Build(area, begin, end);
        std::vector<Tuple> range;
        for (size_t row = begin; row < end; ++row) {
          range.push_back(area.view(row).Materialize());
        }
        HashedTupleIndex hashed(&range, &keys);
        for (const Tuple& p : probes) {
          std::string rec;
          p.SerializeTo(schema, &rec);
          TupleView y = TupleView::Trusted(schema.layout(), rec.data(),
                                           rec.size());
          std::vector<size_t> want;
          hashed.ForEachMatchIndexed(
              y, keys,
              [&](const Tuple&, size_t idx) { want.push_back(begin + idx); });
          std::vector<size_t> got;
          flat.ForEachCandidate(
              y.HashAttrs(keys), [&](const FlatIndex::Entry& e) {
                if (y.EqualOnAttrs(keys, keys, area.view(e.row))) {
                  got.push_back(e.row);
                }
              });
          ASSERT_EQ(got, want) << "seed " << seed << " probe " << p.ToString();
        }
      }
    }
  }
}

TEST(BuildAreaTest, ColumnsAndBytesMatchTheDecodedTuples) {
  const Schema schema = KeySchema();
  const std::vector<size_t> keys = {0, 1, 2};
  Random rng(5);
  const std::vector<Tuple> tuples = KeyTuples(rng, 400);
  BuildArea area(&schema, &keys);
  TEMPO_ASSERT_OK(FillArea(&area, Paginate(schema, tuples)));
  ASSERT_EQ(area.size(), tuples.size());
  size_t bytes = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(area.view(i).Materialize(), tuples[i]);
    EXPECT_EQ(area.key_hash(i), tuples[i].HashAttrs(keys));
    EXPECT_EQ(Interval(area.start(i), area.end(i)), tuples[i].interval());
    bytes += tuples[i].SerializedSize(schema) + BuildArea::kSlotOverhead;
  }
  EXPECT_EQ(area.bytes(), bytes);
}

TEST(BuildAreaTest, PurgeKeepsOverlappingRowsInOrderAcrossTwoPurges) {
  const Schema schema = TestSchema();
  const std::vector<size_t> keys = {0};
  Random rng(11);
  // Enough rows to span several arena blocks.
  std::vector<Tuple> live = RandomTuples(rng, 3000, 40, 600, 0.3);
  BuildArea area(&schema, &keys);
  TEMPO_ASSERT_OK(FillArea(&area, Paginate(schema, live)));

  const std::vector<Tuple> added = RandomTuples(rng, 1000, 40, 600, 0.3);
  for (const Interval& p : {Interval(200, 450), Interval(300, 320)}) {
    std::vector<Tuple> kept;
    size_t visited = 0;
    TEMPO_ASSERT_OK(area.PurgeNotOverlapping(
        p, [&](size_t row, bool keep) -> Status {
          EXPECT_EQ(row, visited++);
          // Every row, dropped or not, is still readable here.
          EXPECT_EQ(area.view(row).Materialize(), live[row]);
          EXPECT_EQ(keep, live[row].interval().Overlaps(p));
          if (keep) kept.push_back(live[row]);
          return Status::OK();
        }));
    EXPECT_EQ(visited, live.size());
    ASSERT_FALSE(kept.empty());
    ASSERT_LT(kept.size(), live.size());
    // The next partition's rows arrive after the purge, as in the
    // partition loop.
    live = kept;
    live.insert(live.end(), added.begin(), added.end());
    TEMPO_ASSERT_OK(FillArea(&area, Paginate(schema, added)));
    ASSERT_EQ(area.size(), live.size());
    size_t bytes = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      ASSERT_EQ(area.view(i).Materialize(), live[i]) << "row " << i;
      EXPECT_EQ(area.key_hash(i), live[i].HashAttrs(keys));
      EXPECT_EQ(Interval(area.start(i), area.end(i)), live[i].interval());
      bytes += live[i].SerializedSize(schema) + BuildArea::kSlotOverhead;
    }
    EXPECT_EQ(area.bytes(), bytes);
  }
}

TEST(BuildAreaTest, FailedVisitLeavesTheAreaUnchanged) {
  const Schema schema = TestSchema();
  const std::vector<size_t> keys = {0};
  const std::vector<Tuple> tuples = {T(1, "a", 0, 5), T(2, "b", 10, 20)};
  BuildArea area(&schema, &keys);
  TEMPO_ASSERT_OK(FillArea(&area, Paginate(schema, tuples)));
  Status st = area.PurgeNotOverlapping(
      Interval(0, 1), [](size_t, bool keep) -> Status {
        return keep ? Status::OK() : Status::Internal("stop");
      });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  ASSERT_EQ(area.size(), 2u);
  EXPECT_EQ(area.view(1).Materialize(), tuples[1]);
}

/// Rewrites page `page_no` of `rel` with its record `slot`'s interval
/// inverted (start > end), which every record check rejects.
void CorruptRecord(StoredRelation* rel, uint32_t page_no, uint16_t slot) {
  Page page;
  TEMPO_ASSERT_OK(rel->ReadPage(page_no, &page));
  Page bad;
  for (uint16_t i = 0; i < page.num_records(); ++i) {
    std::string rec(page.GetRecord(i));
    if (i == slot) {
      const uint64_t late_start = uint64_t{1} << 40;
      std::memcpy(rec.data(), &late_start, 8);
    }
    ASSERT_TRUE(bad.AddRecord(rec).has_value());
  }
  TEMPO_ASSERT_OK(rel->disk()->WritePage(rel->file_id(), page_no, bad));
}

TEST(BuildAreaTest, CorruptRecordRollsBackThePage) {
  Disk disk;
  const Schema schema = TestSchema();
  const std::vector<size_t> keys = {0};
  Random rng(3);
  auto rel = MakeRelation(&disk, schema, RandomTuples(rng, 300, 10, 50, 0.2),
                          "r");
  ASSERT_GE(rel->num_pages(), 3u);
  CorruptRecord(rel.get(), 1, 4);
  BuildArea area(&schema, &keys);
  Page page;
  TEMPO_ASSERT_OK(rel->ReadPage(0, &page));
  TEMPO_ASSERT_OK(area.AddPage(page));
  const size_t rows = area.size();
  const size_t bytes = area.bytes();
  const Tuple first = area.view(0).Materialize();

  TEMPO_ASSERT_OK(rel->ReadPage(1, &page));
  EXPECT_EQ(area.AddPage(page).code(), StatusCode::kCorruption);
  EXPECT_EQ(area.size(), rows);
  EXPECT_EQ(area.bytes(), bytes);

  // The area stays usable: the next page lands right after page 0's rows.
  TEMPO_ASSERT_OK(rel->ReadPage(2, &page));
  TEMPO_ASSERT_OK(area.AddPage(page));
  EXPECT_EQ(area.size(), rows + page.num_records());
  EXPECT_EQ(area.view(0).Materialize(), first);
}

TEST(BuildAreaTest, CorruptBuildPageFailsTheJoinWithoutTempFiles) {
  const Schema s_schema({{"key", ValueType::kInt64},
                         {"sval", ValueType::kString}});
  Random rng(8);
  const std::vector<Tuple> r_tuples = RandomTuples(rng, 400, 10, 200, 0.2);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 400, 10, 200, 0.2)) {
    s_tuples.push_back(Tuple({t.value(0), Value(std::string("s"))},
                             t.interval()));
  }
  struct Case {
    JoinExecutor executor;
    JoinKind kind;
  };
  for (const Case& c : {Case{JoinExecutor::kNestedLoop, JoinKind::kInner},
                        Case{JoinExecutor::kIndexed, JoinKind::kInner},
                        Case{JoinExecutor::kPartition, JoinKind::kInner},
                        Case{JoinExecutor::kPartition, JoinKind::kLeftOuter}}) {
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    auto s = MakeRelation(&disk, s_schema, s_tuples, "s");
    CorruptRecord(r.get(), r->num_pages() - 1, 2);
    TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                               DeriveNaturalJoinLayout(TestSchema(), s_schema));
    StoredRelation out(&disk, layout.output, "out");
    JoinRequest req;
    // 64 pages hold all of r: the partition executor takes its
    // single-partition path, where r's pages go straight into the area.
    req.From(r.get(), s.get()).Using(c.executor).Kind(c.kind).BufferPages(64);
    auto stats = RunJoin(req, &out);
    const std::string what = JoinExecutorName(c.executor);
    EXPECT_EQ(stats.status().code(), StatusCode::kCorruption) << what;
    EXPECT_EQ(disk.TotalPages(),
              uint64_t{r->num_pages()} + s->num_pages() + out.num_pages())
        << what << " left a temporary file behind";
  }
}

}  // namespace
}  // namespace tempo
