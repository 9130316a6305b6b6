// Tests for the flat build-side kernel: a ColumnExtractor as a join's
// build area (relation/column_extract.h) — validated pinning, purge and
// byte accounting — FlatIndex's match order (newest row first, or oldest
// first), and the calls of the grouped probe kernel ProbeFlatIndex
// (join/flat_index.h), on which executors' output bytes depend.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "join/flat_index.h"
#include "join/reference_join.h"
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

Status FillArea(ColumnExtractor* area, const std::vector<Page>& pages) {
  for (const Page& page : pages) {
    TEMPO_RETURN_IF_ERROR(area->AddPage(page).status());
  }
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

/// Indexes `area`'s rows [begin, end) with `walk` and checks that the
/// candidates of each probe — confirmed on the records unless the index
/// holds key words — are exactly the rows of a brute-force scan of
/// [begin, end) whose key equals the probe's: in descending row order for
/// Walk::kNewestFirst, ascending for Walk::kOldestFirst. Returns whether
/// the index held key words.
bool MatchesBruteForceScan(const Schema& schema, const ColumnExtractor& area,
                           const std::vector<size_t>& keys,
                           const std::vector<Tuple>& probes, size_t begin,
                           size_t end, FlatIndex::Walk walk) {
  FlatIndex flat;
  flat.Build(area, begin, end, walk);
  for (const Tuple& p : probes) {
    std::string rec;
    p.SerializeTo(schema, &rec);
    TupleView y = TupleView::Trusted(schema.layout(), rec.data(), rec.size());
    std::vector<size_t> want;
    for (size_t row = begin; row < end; ++row) {
      if (y.EqualOnAttrs(keys, keys, area.view(row))) want.push_back(row);
    }
    if (walk == FlatIndex::Walk::kNewestFirst) {
      std::reverse(want.begin(), want.end());
    }
    std::vector<size_t> got;
    flat.ForEachCandidate(
        y, keys, y.HashAttrs(keys), [&](const FlatIndex::Entry& e) {
          if (flat.key_words() ||
              y.EqualOnAttrs(keys, keys, area.view(e.row))) {
            got.push_back(e.row);
          }
        });
    EXPECT_EQ(got, want) << "rows [" << begin << ", " << end << ") walk "
                         << static_cast<int>(walk) << " probe "
                         << p.ToString();
  }
  return flat.key_words();
}

/// MatchesBruteForceScan under both walks; true when both held key words
/// (the mode does not depend on the walk).
bool MatchesBruteForceScan(const Schema& schema, const ColumnExtractor& area,
                           const std::vector<size_t>& keys,
                           const std::vector<Tuple>& probes, size_t begin,
                           size_t end) {
  const bool newest = MatchesBruteForceScan(schema, area, keys, probes, begin,
                                            end, FlatIndex::Walk::kNewestFirst);
  const bool oldest = MatchesBruteForceScan(schema, area, keys, probes, begin,
                                            end, FlatIndex::Walk::kOldestFirst);
  EXPECT_EQ(newest, oldest);
  return newest && oldest;
}

TEST(FlatIndexTest, MatchOrderEqualsBruteForceScan) {
  const Schema schema = KeySchema();
  const std::vector<std::vector<size_t>> key_sets = {{0}, {1}, {2}, {0, 1, 2}};
  for (uint64_t seed : {1u, 2u, 3u}) {
    Random rng(seed);
    const std::vector<Tuple> build = KeyTuples(rng, 700);
    const std::vector<Tuple> probes = KeyTuples(rng, 200);
    const std::vector<Page> pages = Paginate(schema, build);
    for (const std::vector<size_t>& keys : key_sets) {
      ColumnExtractor area(&schema, &keys);
      TEMPO_ASSERT_OK(FillArea(&area, pages));
      ASSERT_EQ(area.num_rows(), build.size());
      // The whole area, and an overflow-chunk-style row range in place.
      // Every key here is composite, not int64, or NULL in some row, so
      // the index holds key hashes.
      for (auto [begin, end] : {std::pair<size_t, size_t>{0, build.size()},
                                std::pair<size_t, size_t>{150, 420}}) {
        EXPECT_FALSE(
            MatchesBruteForceScan(schema, area, keys, probes, begin, end))
            << "seed " << seed;
      }
    }
  }

  // A single int64 key that no indexed row leaves NULL: the index holds
  // the keys themselves. The domain has the extremes, negative keys, and
  // two distinct keys whose hashes share the low 10 bits, so they share a
  // slot in the 1024-slot table of 700 rows and the 512-slot table of 270.
  auto key_hash = [](int64_t k) {
    return MixAttrHash(kAttrHashSeed, Value::HashInt64(k));
  };
  int64_t twin = 1001;
  while (((key_hash(twin) ^ key_hash(1000)) & 1023) != 0) ++twin;
  ASSERT_NE(key_hash(twin), key_hash(1000));
  const std::vector<int64_t> domain = {INT64_MIN, INT64_MAX,         -1,
                                       -(int64_t{1} << 40), 0, 1000, twin};
  const std::vector<size_t> keys = {0};
  auto tuples = [&](Random& rng, size_t n) {
    std::vector<Tuple> out = KeyTuples(rng, n);
    for (Tuple& t : out) {
      std::vector<Value> values = t.values();
      values[0] = Value(domain[rng.Uniform(domain.size())]);
      t = Tuple(std::move(values), t.interval());
    }
    return out;
  };
  for (uint64_t seed : {4u, 5u}) {
    Random rng(seed);
    std::vector<Tuple> build = tuples(rng, 700);
    std::vector<Tuple> probes = tuples(rng, 200);
    // NULL probe keys, and a key no build row has.
    for (size_t i = 0; i < probes.size(); i += 9) {
      std::vector<Value> values = probes[i].values();
      values[0] = i % 2 == 0 ? Value::Null() : Value(int64_t{7});
      probes[i] = Tuple(std::move(values), probes[i].interval());
    }
    {
      ColumnExtractor area(&schema, &keys);
      TEMPO_ASSERT_OK(FillArea(&area, Paginate(schema, build)));
      EXPECT_TRUE(MatchesBruteForceScan(schema, area, keys, probes, 0,
                                        build.size()));
      EXPECT_TRUE(MatchesBruteForceScan(schema, area, keys, probes, 150, 420));
    }
    // One NULL build key turns key words off for every range holding it
    // (a NULL probe key then matches it, NULL == NULL), and only there.
    std::vector<Value> values = build[300].values();
    values[0] = Value::Null();
    build[300] = Tuple(std::move(values), build[300].interval());
    ColumnExtractor area(&schema, &keys);
    TEMPO_ASSERT_OK(FillArea(&area, Paginate(schema, build)));
    EXPECT_FALSE(
        MatchesBruteForceScan(schema, area, keys, probes, 0, build.size()));
    EXPECT_FALSE(MatchesBruteForceScan(schema, area, keys, probes, 150, 420));
    EXPECT_TRUE(MatchesBruteForceScan(schema, area, keys, probes, 0, 150));
  }
}

/// One call ProbeFlatIndex makes: on_match(probe, row, [lo, hi]), or
/// after_probe(probe) when row is kAfter.
struct ProbeCall {
  static constexpr size_t kAfter = SIZE_MAX;
  size_t probe;
  size_t row;
  Chronon lo;
  Chronon hi;
  bool operator==(const ProbeCall&) const = default;
};

/// The calls of a record-at-a-time scan: for each probe, each build row
/// whose key equals the probe's, in descending row order (the default
/// walk), that overlaps it with the overlap ending in `dedup` (when given)
/// and passes `predicate`; then the probe's after call.
std::vector<ProbeCall> ScanCalls(const ColumnExtractor& area,
                                 const std::vector<size_t>& keys,
                                 const std::vector<TupleView>& probes,
                                 const TemporalPredicate& predicate,
                                 const Interval* dedup) {
  std::vector<ProbeCall> calls;
  for (size_t i = 0; i < probes.size(); ++i) {
    const TupleView& y = probes[i];
    for (size_t row = area.num_rows(); row-- > 0;) {
      if (!y.EqualOnAttrs(keys, keys, area.view(row))) continue;
      const Interval x(area.start(row), area.end(row));
      const auto common = Overlap(x, y.interval());
      if (!common || (dedup != nullptr && !dedup->Contains(common->end())) ||
          !PredicateAdmitsOverlapping(predicate, x, y.interval())) {
        continue;
      }
      calls.push_back({i, row, common->start(), common->end()});
    }
    calls.push_back({i, ProbeCall::kAfter, 0, 0});
  }
  return calls;
}

// ProbeFlatIndex makes exactly the calls of a record-at-a-time scan, in
// the same order: over a hot key whose long-lived rows overflow the match
// buffer, a probe count that is not a multiple of the group, a whole
// group of probes that match nothing, with and without a dedup interval
// and a non-default predicate, under key hashes and key words. The first
// non-OK status, from either callback, is returned and stops every later
// call.
TEST(ProbeFlatIndexTest, CallsFollowARecordAtATimeScan) {
  const Schema schema = KeySchema();
  const std::vector<size_t> keys = {0};
  Random rng(8);
  std::vector<Tuple> build = KeyTuples(rng, 700);
  std::vector<Tuple> probes = KeyTuples(rng, 2 * kFlatProbeGroup + 5);
  // 100 long-lived rows of key 1: every key-1 probe matches more rows
  // than the match buffer holds.
  for (size_t i = 0; i < 100; ++i) {
    build[i * 7] = Tuple({Value(int64_t{1}), Value(std::string("x")),
                          Value(1.5), Value("long" + std::to_string(i))},
                         Interval(0, 200));
  }
  static_assert(100 > kFlatMatchCap);
  // The second group's probes match nothing.
  for (size_t i = kFlatProbeGroup; i < 2 * kFlatProbeGroup; ++i) {
    std::vector<Value> values = probes[i].values();
    values[0] = Value(int64_t{9});
    probes[i] = Tuple(std::move(values), probes[i].interval());
  }
  const Interval dedup(30, 90);
  // The build row strictly contains the probe.
  const TemporalPredicate contains =
      TemporalPredicate::Exactly(AllenRelation::kContains);
  for (bool key_words : {false, true}) {
    if (key_words) {
      for (Tuple& t : build) {
        if (t.value(0).is_null()) {
          std::vector<Value> values = t.values();
          values[0] = Value(int64_t{0});
          t = Tuple(std::move(values), t.interval());
        }
      }
    }
    ColumnExtractor area(&schema, &keys);
    TEMPO_ASSERT_OK(FillArea(&area, Paginate(schema, build)));
    FlatIndex index;
    index.Build(area, 0, area.num_rows());
    ASSERT_EQ(index.key_words(), key_words);
    std::vector<std::string> records(probes.size());
    std::vector<TupleView> views;
    for (size_t i = 0; i < probes.size(); ++i) {
      probes[i].SerializeTo(schema, &records[i]);
      views.push_back(TupleView::Trusted(schema.layout(), records[i].data(),
                                         records[i].size()));
    }
    for (const TemporalPredicate& predicate :
         {TemporalPredicate::Overlap(), contains}) {
      for (const Interval* d : {static_cast<const Interval*>(nullptr),
                                &dedup}) {
        const std::vector<ProbeCall> want =
            ScanCalls(area, keys, views, predicate, d);
        // Fail at call `fail_at`: at every one of the first calls, then
        // sparser, at the last call, and at none (want.size()).
        std::vector<size_t> fail_points;
        for (size_t f = 0; f < want.size(); f += 1 + f / 16) {
          fail_points.push_back(f);
        }
        fail_points.push_back(want.size() - 1);
        fail_points.push_back(want.size());
        for (size_t fail_at : fail_points) {
          std::vector<ProbeCall> got;
          auto record = [&](ProbeCall call) {
            got.push_back(call);
            return got.size() - 1 == fail_at ? Status::Internal("stop")
                                              : Status::OK();
          };
          const Status st = ProbeFlatIndex(
              area, index, views.size(),
              [&](size_t i) { return FlatProbe::Of(views[i], keys); }, keys,
              predicate, d,
              [&](size_t i, size_t row, const Interval& common) {
                return record({i, row, common.start(), common.end()});
              },
              [&](size_t i) {
                return record({i, ProbeCall::kAfter, 0, 0});
              });
          const size_t n = std::min(fail_at + 1, want.size());
          EXPECT_EQ(st.ok(), fail_at >= want.size());
          EXPECT_EQ(got, std::vector<ProbeCall>(want.begin(),
                                                want.begin() + n))
              << "key words " << key_words << " fail at " << fail_at;
        }
      }
    }
  }
}

TEST(FlatIndexTest, NullJoinKeysMatchTheReferenceInEveryUser) {
  // Every executor that probes a FlatIndex, with NULL join keys on the
  // build side, the probe side, or both: key words where the build side
  // has none, key hashes (NULL == NULL) where it has some.
  const Schema s_schema({{"key", ValueType::kInt64},
                         {"sval", ValueType::kString}});
  Random rng(21);
  const std::vector<Tuple> r_base = RandomTuples(rng, 300, 10, 200, 0.2);
  std::vector<Tuple> s_base;
  for (const Tuple& t : RandomTuples(rng, 300, 10, 200, 0.2)) {
    s_base.push_back(
        Tuple({t.value(0), Value(std::string("s"))}, t.interval()));
  }
  // Every seventh key NULL.
  auto with_nulls = [](std::vector<Tuple> ts) {
    for (size_t i = 0; i < ts.size(); i += 7) {
      std::vector<Value> values = ts[i].values();
      values[0] = Value::Null();
      ts[i] = Tuple(std::move(values), ts[i].interval());
    }
    return ts;
  };
  struct Sides {
    bool r_nulls;
    bool s_nulls;
  };
  for (const Sides sides : {Sides{true, false}, Sides{false, true},
                            Sides{true, true}}) {
    const std::vector<Tuple> r_tuples =
        sides.r_nulls ? with_nulls(r_base) : r_base;
    const std::vector<Tuple> s_tuples =
        sides.s_nulls ? with_nulls(s_base) : s_base;
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    auto s = MakeRelation(&disk, s_schema, s_tuples, "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                               DeriveNaturalJoinLayout(TestSchema(), s_schema));
    auto run = [&](JoinExecutor executor) -> StatusOr<std::vector<Tuple>> {
      StoredRelation out(&disk, layout.output, "out");
      JoinRequest req;
      // 8 pages hold a fraction of r: the partition executor runs Grace
      // partitions and the nested loop several outer blocks.
      req.From(r.get(), s.get())
          .Using(executor)
          .BufferPages(8)
          .RadixBudgetBytes(uint64_t{1} << 20);
      TEMPO_RETURN_IF_ERROR(RunJoin(req, &out).status());
      return out.ReadAll();
    };
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> expected,
                               run(JoinExecutor::kReference));
    ASSERT_FALSE(expected.empty());
    for (JoinExecutor executor :
         {JoinExecutor::kNestedLoop, JoinExecutor::kIndexed,
          JoinExecutor::kPartition, JoinExecutor::kInMemoryRadix}) {
      auto actual = run(executor);
      const std::string what = std::string(JoinExecutorName(executor)) +
                               " r_nulls=" + std::to_string(sides.r_nulls) +
                               " s_nulls=" + std::to_string(sides.s_nulls);
      ASSERT_TRUE(actual.ok()) << what << ": " << actual.status().ToString();
      EXPECT_TRUE(SameTupleMultiset(*actual, expected))
          << what << " actual=" << actual->size()
          << " expected=" << expected.size();
    }
  }
}

TEST(BuildAreaTest, ColumnsAndBytesMatchTheDecodedTuples) {
  const Schema schema = KeySchema();
  const std::vector<size_t> keys = {0, 1, 2};
  Random rng(5);
  const std::vector<Tuple> tuples = KeyTuples(rng, 400);
  ColumnExtractor area(&schema, &keys);
  TEMPO_ASSERT_OK(FillArea(&area, Paginate(schema, tuples)));
  ASSERT_EQ(area.num_rows(), tuples.size());
  size_t bytes = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(area.view(i).Materialize(), tuples[i]);
    EXPECT_EQ(area.key_hash(i), tuples[i].HashAttrs(keys));
    EXPECT_EQ(Interval(area.start(i), area.end(i)), tuples[i].interval());
    bytes += tuples[i].SerializedSize(schema) + ColumnExtractor::kSlotOverhead;
  }
  EXPECT_EQ(area.bytes(), bytes);
}

TEST(BuildAreaTest, PurgeKeepsOverlappingRowsInOrderAcrossTwoPurges) {
  const Schema schema = TestSchema();
  const std::vector<size_t> keys = {0};
  Random rng(11);
  // Enough rows to span several arena blocks.
  std::vector<Tuple> live = RandomTuples(rng, 3000, 40, 600, 0.3);
  ColumnExtractor area(&schema, &keys);
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
    ASSERT_EQ(area.num_rows(), live.size());
    size_t bytes = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      ASSERT_EQ(area.view(i).Materialize(), live[i]) << "row " << i;
      EXPECT_EQ(area.key_hash(i), live[i].HashAttrs(keys));
      EXPECT_EQ(Interval(area.start(i), area.end(i)), live[i].interval());
      bytes += live[i].SerializedSize(schema) + ColumnExtractor::kSlotOverhead;
    }
    EXPECT_EQ(area.bytes(), bytes);
  }
}

TEST(BuildAreaTest, FailedVisitLeavesTheAreaUnchanged) {
  const Schema schema = TestSchema();
  const std::vector<size_t> keys = {0};
  const std::vector<Tuple> tuples = {T(1, "a", 0, 5), T(2, "b", 10, 20)};
  ColumnExtractor area(&schema, &keys);
  TEMPO_ASSERT_OK(FillArea(&area, Paginate(schema, tuples)));
  Status st = area.PurgeNotOverlapping(
      Interval(0, 1), [](size_t, bool keep) -> Status {
        return keep ? Status::OK() : Status::Internal("stop");
      });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  ASSERT_EQ(area.num_rows(), 2u);
  EXPECT_EQ(area.view(1).Materialize(), tuples[1]);
}

/// Checks that `area` holds exactly `live`, in order: views, columns and
/// bytes().
void ExpectRows(const Schema& schema, const std::vector<size_t>& keys,
                const ColumnExtractor& area, const std::vector<Tuple>& live) {
  ASSERT_EQ(area.num_rows(), live.size());
  size_t bytes = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(area.view(i).Materialize(), live[i]) << "row " << i;
    EXPECT_EQ(area.key_hash(i), live[i].HashAttrs(keys));
    EXPECT_EQ(Interval(area.start(i), area.end(i)), live[i].interval());
    bytes += live[i].SerializedSize(schema) + ColumnExtractor::kSlotOverhead;
  }
  EXPECT_EQ(area.bytes(), bytes);
}

TEST(BuildAreaTest, PurgeDropsEveryPagePin) {
  Disk disk;
  const Schema schema = TestSchema();
  const std::vector<size_t> keys = {0};
  Random rng(13);
  const std::vector<Tuple> tuples = RandomTuples(rng, 600, 20, 300, 0.3);
  auto rel = MakeRelation(&disk, schema, tuples, "r");
  ASSERT_GE(rel->num_pages(), 3u);
  ColumnExtractor area(&schema, &keys);
  std::vector<std::weak_ptr<const Page>> stored;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    TEMPO_ASSERT_OK_AND_ASSIGN(PagePin page, rel->PinPage(p));
    stored.push_back(page);
    TEMPO_ASSERT_OK(area.AddPage(std::move(page)).status());
  }
  ASSERT_EQ(area.num_pages(), rel->num_pages());

  const Interval p(100, 200);
  std::vector<Tuple> kept;
  for (const Tuple& t : tuples) {
    if (t.interval().Overlaps(p)) kept.push_back(t);
  }
  ASSERT_FALSE(kept.empty());
  ASSERT_LT(kept.size(), tuples.size());
  TEMPO_ASSERT_OK(area.PurgeNotOverlapping(
      p, [](size_t, bool) { return Status::OK(); }));
  EXPECT_EQ(area.num_pages(), 0u);

  // The disk is the only holder of every page it stored. Rewrite a page
  // of the source, which frees the old page once `stored` lets go, then
  // delete the file, which keeps the other frames as spares, poisoned for
  // AddressSanitizer: a view left pointing into any of them reads freed
  // or poisoned memory.
  for (const std::weak_ptr<const Page>& page : stored) {
    EXPECT_EQ(page.use_count(), 1);
  }
  TEMPO_ASSERT_OK(disk.WritePage(rel->file_id(), 0, Page()));
  TEMPO_ASSERT_OK(disk.DeleteFile(rel->file_id()));
  stored.clear();
  ExpectRows(schema, keys, area, kept);
}

TEST(BuildAreaTest, PinnedRowsFollowTheSurvivorsAcrossThreePurges) {
  Disk disk;
  const Schema schema = TestSchema();
  const std::vector<size_t> keys = {0};
  Random rng(17);
  ColumnExtractor area(&schema, &keys);
  std::vector<std::unique_ptr<StoredRelation>> sources;
  std::vector<Tuple> live;  // what the area must hold, in order
  // Pins every page of a fresh relation of 800 rows into the area.
  auto load = [&] {
    const std::vector<Tuple> batch = RandomTuples(rng, 800, 40, 600, 0.3);
    sources.push_back(MakeRelation(&disk, schema, batch,
                                   "r" + std::to_string(sources.size())));
    StoredRelation* rel = sources.back().get();
    for (uint32_t p = 0; p < rel->num_pages(); ++p) {
      TEMPO_ASSERT_OK_AND_ASSIGN(PagePin page, rel->PinPage(p));
      TEMPO_ASSERT_OK(area.AddPage(std::move(page)).status());
    }
    EXPECT_EQ(area.num_pages(), rel->num_pages());
    live.insert(live.end(), batch.begin(), batch.end());
  };
  load();
  ExpectRows(schema, keys, area, live);
  for (const Interval& p :
       {Interval(100, 500), Interval(200, 450), Interval(300, 320)}) {
    std::vector<Tuple> kept;
    size_t visited = 0;
    TEMPO_ASSERT_OK(area.PurgeNotOverlapping(
        p, [&](size_t row, bool keep) -> Status {
          EXPECT_EQ(row, visited++);
          EXPECT_EQ(keep, live[row].interval().Overlaps(p));
          if (keep) kept.push_back(live[row]);
          return Status::OK();
        }));
    EXPECT_EQ(visited, live.size());
    ASSERT_FALSE(kept.empty());
    EXPECT_EQ(area.num_pages(), 0u);
    live = kept;
    ExpectRows(schema, keys, area, live);
    // The arena's survivors, then the newly pinned rows.
    load();
    ExpectRows(schema, keys, area, live);
  }
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
  ColumnExtractor area(&schema, &keys);
  Page page;
  TEMPO_ASSERT_OK(rel->ReadPage(0, &page));
  TEMPO_ASSERT_OK(area.AddPage(page).status());
  const size_t rows = area.num_rows();
  const size_t bytes = area.bytes();
  const Tuple first = area.view(0).Materialize();

  TEMPO_ASSERT_OK(rel->ReadPage(1, &page));
  EXPECT_EQ(area.AddPage(page).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(area.num_rows(), rows);
  EXPECT_EQ(area.bytes(), bytes);

  // The area stays usable: the next page lands right after page 0's rows.
  TEMPO_ASSERT_OK(rel->ReadPage(2, &page));
  TEMPO_ASSERT_OK(area.AddPage(page).status());
  EXPECT_EQ(area.num_rows(), rows + page.num_records());
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
