#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/choose_intervals.h"
#include "core/determine_part_intervals.h"
#include "core/estimate_cache.h"
#include "core/grace_partitioner.h"
#include "core/partition_join.h"
#include "core/partition_spec.h"
#include "core/tuple_cache.h"
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
  return Schema({{"key", ValueType::kInt64}, {"dept", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& dept, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(dept)}, Interval(vs, ve));
}

// ---------------------------------------------------------------------
// PartitionSpec
// ---------------------------------------------------------------------

TEST(PartitionSpecTest, TrivialSpecCoversLine) {
  PartitionSpec spec;
  EXPECT_EQ(spec.num_partitions(), 1u);
  EXPECT_EQ(spec.IndexOf(0), 0u);
  EXPECT_EQ(spec.IndexOf(kChrononMin), 0u);
  EXPECT_EQ(spec.IndexOf(kChrononMax), 0u);
}

TEST(PartitionSpecTest, FromBoundaries) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  ASSERT_EQ(spec.num_partitions(), 3u);
  EXPECT_EQ(spec.partition(0), Interval(kChrononMin, 10));
  EXPECT_EQ(spec.partition(1), Interval(11, 20));
  EXPECT_EQ(spec.partition(2), Interval(21, kChrononMax));
}

TEST(PartitionSpecTest, FromBoundariesRejectsUnsorted) {
  EXPECT_FALSE(PartitionSpec::FromBoundaries({20, 10}).ok());
  EXPECT_FALSE(PartitionSpec::FromBoundaries({10, 10}).ok());
  EXPECT_FALSE(PartitionSpec::FromBoundaries({kChrononMax}).ok());
}

TEST(PartitionSpecTest, FromIntervalsValidates) {
  EXPECT_TRUE(PartitionSpec::FromIntervals(
                  {Interval(kChrononMin, 5), Interval(6, kChrononMax)})
                  .ok());
  // Gap.
  EXPECT_FALSE(PartitionSpec::FromIntervals(
                   {Interval(kChrononMin, 5), Interval(7, kChrononMax)})
                   .ok());
  // Doesn't cover the line.
  EXPECT_FALSE(
      PartitionSpec::FromIntervals({Interval(0, kChrononMax)}).ok());
  EXPECT_FALSE(PartitionSpec::FromIntervals({}).ok());
}

TEST(PartitionSpecTest, IndexOfFindsContainingPartition) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20, 30}));
  EXPECT_EQ(spec.IndexOf(-100), 0u);
  EXPECT_EQ(spec.IndexOf(10), 0u);
  EXPECT_EQ(spec.IndexOf(11), 1u);
  EXPECT_EQ(spec.IndexOf(20), 1u);
  EXPECT_EQ(spec.IndexOf(25), 2u);
  EXPECT_EQ(spec.IndexOf(31), 3u);
}

TEST(PartitionSpecTest, OverlapQueries) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20, 30}));
  Interval long_lived(5, 25);
  EXPECT_EQ(spec.FirstOverlapping(long_lived), 0u);
  EXPECT_EQ(spec.LastOverlapping(long_lived), 2u);
  EXPECT_EQ(spec.OverlapCount(long_lived), 3u);
  Interval short_lived(15, 15);
  EXPECT_EQ(spec.OverlapCount(short_lived), 1u);
}

// ---------------------------------------------------------------------
// ChooseIntervals vs. the paper's materialized-multiset pseudocode
// ---------------------------------------------------------------------

// Oracle: literal A.3 — materialize the covered-chronon multiset, sort it,
// pick boundaries at equal positions.
std::vector<Chronon> MaterializedBoundaries(const std::vector<Interval>& samples,
                                            uint32_t n) {
  std::vector<Chronon> multiset;
  for (const Interval& iv : samples) {
    for (Chronon t = iv.start(); t <= iv.end(); ++t) multiset.push_back(t);
  }
  std::sort(multiset.begin(), multiset.end());
  std::vector<Chronon> bounds;
  if (multiset.empty()) return bounds;
  for (uint32_t q = 1; q < n; ++q) {
    size_t pos = (multiset.size() * q + n - 1) / n;  // ceil, 1-based
    if (pos == 0) pos = 1;
    Chronon b = multiset[pos - 1];
    if (b >= multiset.back()) continue;
    if (!bounds.empty() && b <= bounds.back()) continue;
    bounds.push_back(b);
  }
  return bounds;
}

class ChooseIntervalsPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ChooseIntervalsPropertyTest, MatchesMaterializedPseudocode) {
  Random rng(GetParam());
  std::vector<Interval> samples;
  size_t count = 5 + rng.Uniform(40);
  for (size_t i = 0; i < count; ++i) {
    Chronon s = rng.UniformRange(0, 60);
    Chronon e = s + rng.UniformRange(0, 20);
    samples.push_back(Interval(s, e));
  }
  uint32_t n = 2 + static_cast<uint32_t>(rng.Uniform(6));
  PartitionSpec spec = ChooseIntervals(samples, n);
  std::vector<Chronon> expected = MaterializedBoundaries(samples, n);
  ASSERT_EQ(spec.num_partitions(), expected.size() + 1)
      << "seed " << GetParam();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(spec.partition(i).end(), expected[i]) << "boundary " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChooseIntervalsPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

TEST(ChooseIntervalsTest, EmptySamplesGiveTrivialSpec) {
  EXPECT_EQ(ChooseIntervals({}, 8).num_partitions(), 1u);
}

TEST(ChooseIntervalsTest, OnePartitionIsTrivial) {
  EXPECT_EQ(ChooseIntervals({Interval(0, 10)}, 1).num_partitions(), 1u);
}

TEST(ChooseIntervalsTest, UniformSamplesGiveBalancedPartitions) {
  std::vector<Interval> samples;
  for (Chronon t = 0; t < 1000; ++t) samples.push_back(Interval::At(t));
  PartitionSpec spec = ChooseIntervals(samples, 4);
  ASSERT_EQ(spec.num_partitions(), 4u);
  // Interior boundaries near the quartiles.
  EXPECT_NEAR(static_cast<double>(spec.partition(0).end()), 250, 2);
  EXPECT_NEAR(static_cast<double>(spec.partition(1).end()), 500, 2);
  EXPECT_NEAR(static_cast<double>(spec.partition(2).end()), 750, 2);
}

TEST(ChooseIntervalsTest, IdenticalSamplesCollapse) {
  std::vector<Interval> samples(50, Interval::At(7));
  PartitionSpec spec = ChooseIntervals(samples, 8);
  // Only one distinct chronon: no valid interior boundary.
  EXPECT_EQ(spec.num_partitions(), 1u);
}

TEST(ChooseIntervalsTest, LongLivedSamplesPullBoundaries) {
  // 80 chronons of mass in [0,9], 90 in one long interval [10,99]: the
  // half-weight boundary falls inside the long interval, not at the
  // numeric midpoint of the sample starts — long-lived samples count in
  // proportion to their duration.
  std::vector<Interval> samples;
  for (int i = 0; i < 8; ++i) samples.push_back(Interval(0, 9));
  samples.push_back(Interval(10, 99));
  PartitionSpec spec = ChooseIntervals(samples, 2);
  ASSERT_EQ(spec.num_partitions(), 2u);
  EXPECT_GT(spec.partition(0).end(), 9);
}

// Reference: the node-based construction CoverageIndex used before it
// moved to one sorted delta array — a std::map keyed on every endpoint
// chronon (zero-net keys included), walked into segments, with the same
// equi-depth boundary walk.
std::vector<Chronon> MapCoverageBoundaries(const std::vector<Interval>& samples,
                                           uint32_t n) {
  struct Segment {
    Chronon start;
    Chronon end;
    int64_t coverage;
    unsigned __int128 cum_before;
  };
  std::map<Chronon, int64_t> deltas;
  for (const Interval& iv : samples) {
    deltas[iv.start()] += 1;
    if (iv.end() != kChrononMax) deltas[iv.end() + 1] -= 1;
  }
  std::vector<Segment> segments;
  unsigned __int128 total = 0;
  int64_t coverage = 0;
  for (auto it = deltas.begin(); it != deltas.end();) {
    const Chronon start = it->first;
    coverage += it->second;
    ++it;
    const Chronon end = it == deltas.end() ? start : it->first - 1;
    if (coverage > 0 && end >= start) {
      segments.push_back({start, end, coverage, total});
      total += (static_cast<unsigned __int128>(end - start) + 1) *
               static_cast<unsigned __int128>(coverage);
    }
  }
  std::vector<Chronon> bounds;
  if (segments.empty()) return bounds;
  size_t seg = 0;
  for (uint32_t q = 1; q < n; ++q) {
    unsigned __int128 target = (total * q + n - 1) / n;
    if (target == 0) target = 1;
    while (seg + 1 < segments.size() &&
           segments[seg + 1].cum_before < target) {
      ++seg;
    }
    const Segment& s = segments[seg];
    const Chronon b =
        s.start + static_cast<Chronon>((target - s.cum_before - 1) /
                                       static_cast<unsigned __int128>(
                                           s.coverage));
    if (b >= segments.back().end) continue;
    if (!bounds.empty() && b <= bounds.back()) continue;
    bounds.push_back(b);
  }
  return bounds;
}

TEST(CoverageIndexTest, ChooseMatchesMapConstruction) {
  Random rng(2008);
  for (int round = 0; round < 60; ++round) {
    std::vector<Interval> samples;
    const size_t count = 1 + rng.Uniform(400);
    for (size_t i = 0; i < count; ++i) {
      // A narrow start range forces duplicate endpoints; one-chronon
      // intervals, kChrononMax ends and adjacent pairs (one ending where
      // the next starts, so +1 and -1 net to zero at a chronon) ride along.
      const Chronon start = rng.UniformRange(0, 120);
      switch (rng.Uniform(5)) {
        case 0:
          samples.push_back(Interval::At(start));
          break;
        case 1:
          samples.push_back(Interval(start, kChrononMax));
          break;
        case 2: {
          const Chronon mid = start + rng.UniformRange(0, 10);
          samples.push_back(Interval(start, mid));
          samples.push_back(Interval(mid + 1, mid + 1 + rng.UniformRange(0, 10)));
          break;
        }
        default:
          samples.push_back(
              Interval(start, start + rng.UniformRange(0, 300)));
      }
    }
    const CoverageIndex index(samples);
    for (uint32_t k = 2; k <= 64; ++k) {
      const PartitionSpec spec = index.Choose(k);
      const std::vector<Chronon> expected = MapCoverageBoundaries(samples, k);
      ASSERT_EQ(spec.num_partitions(), expected.size() + 1)
          << "round " << round << " k " << k;
      for (size_t b = 0; b < expected.size(); ++b) {
        EXPECT_EQ(spec.partition(b).end(), expected[b])
            << "round " << round << " k " << k << " boundary " << b;
      }
    }
  }
}

// ---------------------------------------------------------------------
// EstimateCacheSizes
// ---------------------------------------------------------------------

TEST(EstimateCacheTest, NoLongLivedMeansNoCache) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  std::vector<Interval> samples{Interval::At(5), Interval::At(15),
                                Interval::At(25)};
  auto pages = EstimateCacheSizes(samples, 300, 10.0, spec);
  EXPECT_EQ(pages, std::vector<uint64_t>({0, 0, 0}));
}

TEST(EstimateCacheTest, LongLivedCountedInAllButLastPartition) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  // Spans all three partitions: cached for partitions 0 and 1.
  std::vector<Interval> samples{Interval(5, 25)};
  auto pages = EstimateCacheSizes(samples, 100, 10.0, spec);
  // Scale: 100 tuples / 1 sample = 100 estimated tuples, 10/page.
  EXPECT_EQ(pages[0], 10u);
  EXPECT_EQ(pages[1], 10u);
  EXPECT_EQ(pages[2], 0u);
}

TEST(EstimateCacheTest, ScalingBySampleFraction) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10}));
  // 2 of 4 samples overlap both partitions.
  std::vector<Interval> samples{Interval(5, 15), Interval(8, 12),
                                Interval::At(3), Interval::At(14)};
  auto pages = EstimateCacheSizes(samples, 400, 10.0, spec);
  // (2/4) * 400 = 200 tuples -> 20 pages for partition 0.
  EXPECT_EQ(pages[0], 20u);
  EXPECT_EQ(pages[1], 0u);
}

TEST(EstimateCacheTest, EmptySamples) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10}));
  auto pages = EstimateCacheSizes({}, 400, 10.0, spec);
  EXPECT_EQ(pages, std::vector<uint64_t>({0, 0}));
}

TEST(EstimateCacheTest, StoredTuplesCountEachSampleWhereItEnds) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  // Stored in partitions 2, 0, 0 and 1: a tuple lives where it ends. The
  // first also overlaps partitions 0 and 1, so it is cached for them.
  std::vector<Interval> samples{Interval(5, 25), Interval::At(3),
                                Interval::At(7), Interval(12, 18)};
  // 400 tuples / 4 samples = 100 tuples per sample.
  EXPECT_EQ(EstimateStoredTuples(samples, 400, spec),
            std::vector<double>({200.0, 100.0, 100.0}));
  EXPECT_EQ(EstimateCachedTuples(samples, 400, spec),
            std::vector<double>({100.0, 100.0, 0.0}));
}

// ---------------------------------------------------------------------
// DeterminePartIntervals
// ---------------------------------------------------------------------

class DeterminePlanTest : public ::testing::Test {
 protected:
  std::unique_ptr<StoredRelation> MakeBig(double long_lived_prob,
                                          uint64_t seed) {
    Random rng(seed);
    return MakeRelation(&disk_, TestSchema(),
                        RandomTuples(rng, 4000, 100, 5000, long_lived_prob),
                        "r" + std::to_string(seed));
  }

  Disk disk_;
};

TEST_F(DeterminePlanTest, FittingRelationGetsTrivialPlan) {
  auto rel = MakeBig(0.1, 1);
  PartitionPlanOptions options;
  options.buffer_pages = rel->num_pages() + 10;
  Random rng(9);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  EXPECT_EQ(plan.num_partitions, 1u);
  EXPECT_EQ(plan.samples_drawn, 0u);
  EXPECT_EQ(plan.spec.num_partitions(), 1u);
}

// Long-lived tuples retained in a small area overflow it. The chosen plan
// prices those chunks from its sample (outside est_join_cost, which stays
// the paper's C_join), and the executor running that plan processes about
// as many.
TEST_F(DeterminePlanTest, OverflowEstimateTracksExecutorChunks) {
  auto r = MakeBig(0.3, 5);
  auto s = MakeBig(0.3, 6);
  PartitionJoinOptions options;
  options.buffer_pages = 6;
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             PlanPartitions(r.get(), options));
  ASSERT_GT(plan.num_partitions, 1u);
  EXPECT_GT(plan.est_overflow_chunks, 0u);
  EXPECT_GT(plan.est_overflow_cost, 0.0);
  EXPECT_EQ(plan.samples.size(), plan.samples_drawn);

  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk_, layout.output, "out");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats, PartitionVtJoin(r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.Get(Metric::kEstJoinCost), plan.est_join_cost);
  const double actual = stats.Get(Metric::kOverflowChunks);
  EXPECT_GT(static_cast<double>(plan.est_overflow_chunks), 0.75 * actual);
  EXPECT_LT(static_cast<double>(plan.est_overflow_chunks), 1.25 * actual);
}

TEST_F(DeterminePlanTest, BigRelationGetsMultiplePartitions) {
  auto rel = MakeBig(0.0, 2);
  PartitionPlanOptions options;
  options.buffer_pages = rel->num_pages() / 4;
  Random rng(9);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  EXPECT_GT(plan.num_partitions, 1u);
  EXPECT_GT(plan.samples_drawn, 0u);
  EXPECT_EQ(plan.spec.num_partitions(), plan.num_partitions);
  // Estimated partition size must fit the area.
  EXPECT_LE(plan.part_size_pages, options.buffer_pages - 3);
}

TEST_F(DeterminePlanTest, ForcedPartitionCountHonored) {
  auto rel = MakeBig(0.0, 3);
  PartitionPlanOptions options;
  options.buffer_pages = rel->num_pages();
  options.forced_num_partitions = 5;
  Random rng(9);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  EXPECT_EQ(plan.num_partitions, 5u);
}

TEST_F(DeterminePlanTest, PartitionsRoughlyBalanced) {
  auto rel = MakeBig(0.0, 4);
  PartitionPlanOptions options;
  options.buffer_pages = rel->num_pages() / 4;
  Random rng(10);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  ASSERT_GT(plan.num_partitions, 1u);
  // Count tuples stored per partition (last-overlap placement).
  std::vector<uint64_t> counts(plan.num_partitions, 0);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> all, rel->ReadAll());
  for (const Tuple& t : all) {
    ++counts[plan.spec.LastOverlapping(t.interval())];
  }
  uint64_t expected = all.size() / plan.num_partitions;
  for (uint64_t c : counts) {
    EXPECT_GT(c, expected / 3);
    EXPECT_LT(c, expected * 3);
  }
}

TEST_F(DeterminePlanTest, EmptyRelationTrivial) {
  auto rel = MakeRelation(&disk_, TestSchema(), {}, "empty");
  PartitionPlanOptions options;
  options.buffer_pages = 16;
  Random rng(1);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  EXPECT_EQ(plan.num_partitions, 1u);
}

TEST_F(DeterminePlanTest, InScanCapsActualSamplingCost) {
  auto rel = MakeBig(0.2, 5);
  PartitionPlanOptions options;
  options.buffer_pages = std::max<uint32_t>(8, rel->num_pages() / 4);
  options.in_scan_sampling = true;
  Random rng(11);
  disk_.accountant().Reset();
  TEMPO_ASSERT_OK(DeterminePartIntervals(rel.get(), options, &rng).status());
  double cost = disk_.accountant().stats().Cost(options.cost_model);
  // Sampling can never exceed ~2 scans' worth under the in-scan rule
  // (random draws before the switch plus the scan itself).
  double scan = options.cost_model.random_weight + (rel->num_pages() - 1);
  EXPECT_LE(cost, 2.1 * scan);
}

// ---------------------------------------------------------------------
// GracePartition
// ---------------------------------------------------------------------

class GracePartitionTest : public ::testing::Test {
 protected:
  Disk disk_;
};

TEST_F(GracePartitionTest, LastOverlapPlacement) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  std::vector<Tuple> tuples{T(1, "a", 0, 5), T(2, "b", 15, 25),
                            T(3, "c", 5, 15), T(4, "d", 21, 30)};
  auto rel = MakeRelation(&disk_, TestSchema(), tuples, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      PartitionedRelation parts,
      GracePartition(rel.get(), spec, 16, PlacementPolicy::kLastOverlap, "r"));
  ASSERT_EQ(parts.parts.size(), 3u);
  EXPECT_EQ(parts.tuples_written, 4u);

  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> p0, parts.parts[0]->ReadAll());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> p1, parts.parts[1]->ReadAll());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> p2, parts.parts[2]->ReadAll());
  // (1) ends at 5 -> p0. (3) ends at 15 -> p1. (2) and (4) end past 20 -> p2.
  ASSERT_EQ(p0.size(), 1u);
  EXPECT_EQ(p0[0].value(0).AsInt64(), 1);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p1[0].value(0).AsInt64(), 3);
  EXPECT_EQ(p2.size(), 2u);
}

TEST_F(GracePartitionTest, ReplicatePlacement) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  std::vector<Tuple> tuples{T(1, "a", 5, 25)};  // spans all three
  auto rel = MakeRelation(&disk_, TestSchema(), tuples, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      PartitionedRelation parts,
      GracePartition(rel.get(), spec, 16, PlacementPolicy::kReplicate, "r"));
  EXPECT_EQ(parts.tuples_written, 3u);
  for (auto& p : parts.parts) {
    EXPECT_EQ(p->num_tuples(), 1u);
  }
}

TEST_F(GracePartitionTest, RequiresBufferPerPartition) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({1, 2, 3, 4}));
  auto rel = MakeRelation(&disk_, TestSchema(), {}, "r");
  // 5 partitions need 6 pages.
  EXPECT_FALSE(
      GracePartition(rel.get(), spec, 5, PlacementPolicy::kLastOverlap, "r")
          .ok());
}

TEST_F(GracePartitionTest, EveryTupleLandsInItsLastOverlapPartition) {
  Random rng(31);
  std::vector<Tuple> tuples = RandomTuples(rng, 500, 20, 300, 0.3);
  auto rel = MakeRelation(&disk_, TestSchema(), tuples, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({50, 120, 200}));
  TEMPO_ASSERT_OK_AND_ASSIGN(
      PartitionedRelation parts,
      GracePartition(rel.get(), spec, 16, PlacementPolicy::kLastOverlap, "r"));
  uint64_t total = 0;
  for (size_t i = 0; i < parts.parts.size(); ++i) {
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> in_part,
                               parts.parts[i]->ReadAll());
    total += in_part.size();
    for (const Tuple& t : in_part) {
      EXPECT_EQ(spec.LastOverlapping(t.interval()), i);
    }
  }
  EXPECT_EQ(total, tuples.size());
}

// ---------------------------------------------------------------------
// TupleCache
// ---------------------------------------------------------------------

/// The stored record of T(key, name, vs, ve).
std::string Record(int64_t key, const std::string& name, Chronon vs,
                   Chronon ve) {
  std::string record;
  T(key, name, vs, ve).SerializeTo(TestSchema(), &record);
  return record;
}

TEST(TupleCacheTest, SmallCacheStaysInMemory) {
  Disk disk;
  TupleCache cache(&disk, TestSchema(), "c");
  TEMPO_ASSERT_OK(cache.AddRecord(Record(1, "a", 0, 1)));
  TEMPO_ASSERT_OK(cache.AddRecord(Record(2, "b", 0, 1)));
  EXPECT_EQ(cache.spilled_pages(), 0u);
  ASSERT_EQ(cache.memory_views().size(), 2u);
  EXPECT_EQ(cache.memory_views()[1].Materialize(), T(2, "b", 0, 1));
  EXPECT_EQ(cache.num_tuples(), 2u);
}

TEST(TupleCacheTest, SpillsFullPages) {
  Disk disk;
  TupleCache cache(&disk, TestSchema(), "c");
  // ~120-byte records: ~34 fit a page.
  std::string pad(100, 'p');
  for (int i = 0; i < 200; ++i) {
    TEMPO_ASSERT_OK(cache.AddRecord(Record(i, pad, 0, 1)));
  }
  EXPECT_GT(cache.spilled_pages(), 3u);
  EXPECT_EQ(cache.num_tuples(), 200u);
  // Everything is retrievable, in retention order: spilled pages, then
  // the in-memory area.
  const Schema schema = TestSchema();  // outlives the arena's views
  PageTupleArena arena;
  for (uint32_t p = 0; p < cache.spilled_pages(); ++p) {
    TEMPO_ASSERT_OK_AND_ASSIGN(PagePin page, cache.PinSpilledPage(p));
    TEMPO_ASSERT_OK(arena.AddPage(schema, std::move(page)).status());
  }
  std::vector<TupleView> found = arena.views();
  found.insert(found.end(), cache.memory_views().begin(),
               cache.memory_views().end());
  ASSERT_EQ(found.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(found[i].Materialize(), T(i, pad, 0, 1)) << i;
  }
}

// The join moves each finished generation into place (cache =
// std::move(next_gen)) and then probes its in-memory views: a move keeps
// the records where they are.
TEST(TupleCacheTest, MovedGenerationKeepsItsViews) {
  Disk disk;
  const std::string pad(100, 'p');
  TupleCache next_gen(&disk, TestSchema(), "next");
  for (int i = 0; i < 50; ++i) {
    TEMPO_ASSERT_OK(next_gen.AddRecord(Record(i, pad, 0, 1)));
  }
  ASSERT_GT(next_gen.spilled_pages(), 0u);
  const std::vector<TupleView> before = next_gen.memory_views();
  ASSERT_FALSE(before.empty());
  TupleCache cache(&disk, TestSchema(), "consumed");
  cache = std::move(next_gen);
  ASSERT_EQ(cache.memory_views().size(), before.size());
  const int first = 50 - static_cast<int>(before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(cache.memory_views()[i].record().data(),
              before[i].record().data());
    EXPECT_EQ(before[i].Materialize(),
              T(first + static_cast<int>(i), pad, 0, 1));
  }
}

// A consumed generation is discarded by move-assigning the next one over
// it (as the join does) or by destroying it; either way its spill file goes.
TEST(TupleCacheTest, ReplacedOrDestroyedGenerationDropsSpill) {
  Disk disk;
  std::string pad(100, 'p');
  {
    TupleCache cache(&disk, TestSchema(), "c");
    for (int i = 0; i < 100; ++i) {
      TEMPO_ASSERT_OK(cache.AddRecord(Record(i, pad, 0, 1)));
    }
    EXPECT_GT(disk.TotalPages(), 0u);
    cache = TupleCache(&disk, TestSchema(), "next");
    EXPECT_EQ(disk.TotalPages(), 0u);
    EXPECT_EQ(cache.num_tuples(), 0u);
    for (int i = 0; i < 100; ++i) {
      TEMPO_ASSERT_OK(cache.AddRecord(Record(i, pad, 0, 1)));
    }
    EXPECT_GT(disk.TotalPages(), 0u);
  }
  EXPECT_EQ(disk.TotalPages(), 0u);
}

// ---------------------------------------------------------------------
// Partition join vs oracle (the headline correctness property)
// ---------------------------------------------------------------------

struct PartitionJoinCase {
  uint32_t buffer_pages;
  double long_lived_prob;
  PlacementPolicy placement;
  uint32_t forced_partitions;
  uint64_t seed;
};

class PartitionJoinOracleTest
    : public ::testing::TestWithParam<PartitionJoinCase> {};

TEST_P(PartitionJoinOracleTest, MatchesReferenceJoin) {
  const PartitionJoinCase& c = GetParam();
  Random rng(c.seed);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 400, 30, 600,
                                             c.long_lived_prob);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 350, 30, 600, c.long_lived_prob)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }

  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");

  PartitionJoinOptions options;
  options.buffer_pages = c.buffer_pages;
  options.placement = c.placement;
  options.forced_num_partitions = c.forced_partitions;
  options.seed = c.seed * 7 + 1;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionVtJoin(r.get(), s.get(), &out, options));

  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_EQ(stats.output_tuples, expected.size());
  EXPECT_TRUE(SameTupleMultiset(actual, expected))
      << "got " << actual.size() << " tuples, want " << expected.size()
      << " (partitions=" << stats.Get(Metric::kPartitions) << ")";
}

std::vector<PartitionJoinCase> MakePartitionJoinCases() {
  std::vector<PartitionJoinCase> cases;
  for (uint32_t pages : {6u, 10u, 24u, 256u}) {
    for (double llp : {0.0, 0.3, 0.9}) {
      for (PlacementPolicy pol :
           {PlacementPolicy::kLastOverlap, PlacementPolicy::kReplicate}) {
        for (uint64_t seed : {1ull, 2ull, 3ull}) {
          cases.push_back({pages, llp, pol, 0, seed});
        }
      }
    }
  }
  // Forced partition counts stress migration depth.
  for (uint32_t forced : {2u, 3u, 7u}) {
    cases.push_back(
        {64, 0.5, PlacementPolicy::kLastOverlap, forced, 42});
    cases.push_back({64, 0.5, PlacementPolicy::kReplicate, forced, 42});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionJoinOracleTest,
    ::testing::ValuesIn(MakePartitionJoinCases()),
    [](const ::testing::TestParamInfo<PartitionJoinCase>& info) {
      const PartitionJoinCase& c = info.param;
      return "b" + std::to_string(c.buffer_pages) + "_ll" +
             std::to_string(static_cast<int>(c.long_lived_prob * 10)) +
             (c.placement == PlacementPolicy::kReplicate ? "_rep" : "_mig") +
             "_f" + std::to_string(c.forced_partitions) + "_s" +
             std::to_string(c.seed);
    });

// ---------------------------------------------------------------------
// Partition join behavioural properties
// ---------------------------------------------------------------------

TEST(PartitionJoinTest, EmitsEachPairExactlyOnceAcrossPartitions) {
  // Two long-lived tuples overlapping every partition: they co-reside in
  // several partition steps; the result must still be a single tuple.
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 100)}, "r");
  auto s = MakeRelation(&disk, SSchema(), {S(1, "x", 0, 100)}, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  PartitionJoinOptions options;
  options.buffer_pages = 16;
  options.forced_num_partitions = 4;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionVtJoin(r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.output_tuples, 1u);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> result, out.ReadAll());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].interval(), Interval(0, 100));
}

TEST(PartitionJoinTest, CacheTrafficGrowsWithLongLivedTuples) {
  auto run = [](double llp) -> double {
    Random rng(77);
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(),
                          RandomTuples(rng, 3000, 50, 3000, llp), "r");
    std::vector<Tuple> s_tuples;
    for (const Tuple& t : RandomTuples(rng, 3000, 50, 3000, llp)) {
      s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                           t.interval().end()));
    }
    auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
    StoredRelation out(&disk, layout->output, "out");
    out.SetCharged(false).ok();
    JoinRequest req;
    req.From(r.get(), s.get()).Using(JoinExecutor::kPartition).BufferPages(16);
    auto stats = RunJoin(req, &out);
    return stats->Get(Metric::kCacheTuples);
  };
  EXPECT_GT(run(0.5), run(0.0));
}

TEST(PartitionJoinTest, ReplicationWritesMoreStorage) {
  Random rng(78);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 2000, 50, 2000, 0.5);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 2000, 50, 2000, 0.5)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto run = [&](PlacementPolicy policy) -> double {
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
    StoredRelation out(&disk, layout->output, "out");
    out.SetCharged(false).ok();
    PartitionJoinOptions options;
    options.buffer_pages = 32;
    options.placement = policy;
    options.forced_num_partitions = 8;
    auto stats = PartitionVtJoin(r.get(), s.get(), &out, options);
    return stats->Get(Metric::kTuplesWritten);
  };
  EXPECT_GT(run(PlacementPolicy::kReplicate),
            run(PlacementPolicy::kLastOverlap));
}

TEST(PartitionJoinTest, FitsInMemorySkipsPartitioning) {
  Random rng(79);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 200, 20, 500, 0.2), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 200, 20, 500, 0.2)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
  StoredRelation out(&disk, layout->output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  disk.accountant().Reset();
  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kPartition).BufferPages(4096);
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats, RunJoin(req, &out));
  EXPECT_EQ(stats.Get(Metric::kPartitions), 1.0);
  // Exactly one sequential pass over each input, nothing else.
  EXPECT_EQ(stats.io.total_ops(), r->num_pages() + s->num_pages());
  EXPECT_EQ(stats.io.random_reads, 2u);
}

TEST(PartitionJoinTest, OverflowChunksKeepCorrectness) {
  // Force a partitioning whose outer partitions exceed the area: with
  // buffer_pages=5 the area is 2 pages, but forced 2 partitions of a
  // 10-page relation are ~5 pages each.
  Random rng(80);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 800, 10, 400, 0.1);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 700, 10, 400, 0.1)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
  StoredRelation out(&disk, layout->output, "out");
  PartitionJoinOptions options;
  options.buffer_pages = 5;
  options.forced_num_partitions = 2;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionVtJoin(r.get(), s.get(), &out, options));
  EXPECT_GT(stats.Get(Metric::kOverflowChunks), 0.0);
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, expected));
}

TEST(PartitionJoinTest, PartitionFilesAreDroppedAfterJoin) {
  Random rng(81);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 1000, 20, 500, 0.2), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 1000, 20, 500, 0.2)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
  StoredRelation out(&disk, layout->output, "out");
  uint64_t base_pages = disk.TotalPages();
  JoinRequest req;
  req.From(r.get(), s.get()).Using(JoinExecutor::kPartition).BufferPages(8);
  TEMPO_ASSERT_OK(RunJoin(req, &out).status());
  // Only the output remains beyond the inputs.
  EXPECT_EQ(disk.TotalPages(), base_pages + out.num_pages());
}

// ---------------------------------------------------------------------
// One-partition plans: joinPartitions over r and s themselves
// ---------------------------------------------------------------------

struct OnePartitionInputs {
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
};

// 2,000 r and 2,000 s tuples, every one stamped [5, 5]. Both exceed the
// partition area at every buffer tested, so each is sampled, and every
// sample covers the one chronon, so the plan collapses to one partition.
// Some keys of each side have no partner on the other.
OnePartitionInputs CollapsedInputs() {
  Random rng(91);
  OnePartitionInputs in;
  for (int i = 0; i < 2000; ++i) {
    in.r_tuples.push_back(T(static_cast<int64_t>(rng.Uniform(400)),
                            "r" + std::to_string(i), 5, 5));
  }
  for (int i = 0; i < 2000; ++i) {
    in.s_tuples.push_back(S(static_cast<int64_t>(rng.Uniform(500)),
                            "s" + std::to_string(i), 5, 5));
  }
  return in;
}

// Inputs of at most buffSize - 3 pages each: the plan is the trivial one
// and draws no sample. Intervals vary, so outer rows are matched fully,
// partly or not at all.
OnePartitionInputs FittingInputs(uint32_t buffer_pages) {
  Random rng(92);
  const size_t n = 60 * (buffer_pages - 3);
  OnePartitionInputs in;
  in.r_tuples = RandomTuples(rng, n, 40, 60, 0.3);
  for (const Tuple& t : RandomTuples(rng, n, 40, 60, 0.3)) {
    in.s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                            t.interval().end()));
  }
  return in;
}

// Every join kind of the partition executor, at buffers 4, 8 and 16 with a
// tuple cache of 1 and 4 pages, on a collapsed and on a fitting input. The
// plan has one partition, and joinPartitions chunks r exactly when it
// exceeds the area left beside the inner, result and cache pages, also
// when r fits buffSize - 3 pages. Under the outer and anti kinds the rows
// of every chunk retire with their coverage. Each output equals the
// reference join's.
TEST(OnePartitionLoopTest, EveryKindMatchesReferenceJoin) {
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  int fitting_runs_chunked = 0;
  for (bool collapsed : {true, false}) {
    for (uint32_t buffer : {4u, 8u, 16u}) {
      const OnePartitionInputs in =
          collapsed ? CollapsedInputs() : FittingInputs(buffer);
      for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                            JoinKind::kFullOuter, JoinKind::kAnti}) {
        TEMPO_ASSERT_OK_AND_ASSIGN(
            std::vector<Tuple> expected,
            ReferenceJoin(TestSchema(), in.r_tuples, SSchema(), in.s_tuples,
                          kind));
        for (uint32_t cache_pages : {1u, 4u}) {
          const std::string label =
              std::string(collapsed ? "collapsed" : "fitting") + " " +
              JoinKindName(kind) + " buffer " + std::to_string(buffer) +
              " cache " + std::to_string(cache_pages);
          Disk disk;
          auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
          auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
          if (!collapsed) {
            ASSERT_LE(r->num_pages(), buffer - 3) << label;
            ASSERT_LE(s->num_pages(), buffer - 3) << label;
          }
          StoredRelation out(
              &disk, JoinOutputSchema(TestSchema(), layout, kind), "out");
          PartitionJoinOptions options;
          options.buffer_pages = buffer;
          options.join_kind = kind;
          options.tuple_cache_memory_pages = cache_pages;
          TEMPO_ASSERT_OK_AND_ASSIGN(
              JoinRunStats stats,
              PartitionVtJoin(r.get(), s.get(), &out, options));
          // The full outer's swapped pass reports its own plan over s.
          EXPECT_EQ(stats.Get(Metric::kPartitions), 1.0) << label;
          EXPECT_EQ(stats.Get(Metric::kSamples) > 0.0, collapsed) << label;
          const uint32_t area_pages =
              buffer > 2 + cache_pages ? buffer - 2 - cache_pages : 1;
          const uint32_t outer_pages =
              kind == JoinKind::kFullOuter ? s->num_pages() : r->num_pages();
          if (outer_pages <= area_pages) {
            EXPECT_EQ(stats.Get(Metric::kOverflowChunks), 0.0) << label;
          } else if (outer_pages > area_pages + 1) {
            EXPECT_GE(stats.Get(Metric::kOverflowChunks), 1.0) << label;
          }
          if (!collapsed && stats.Get(Metric::kOverflowChunks) > 0.0) {
            ++fitting_runs_chunked;
          }
          TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
          EXPECT_EQ(stats.output_tuples, expected.size()) << label;
          EXPECT_TRUE(SameTupleMultiset(actual, expected)) << label;
        }
      }
    }
  }
  // A 4-page cache leaves a fitting r more than its area at 8 pages.
  EXPECT_GT(fitting_runs_chunked, 0);
}

// The collapsed input at 8 pages: one partition of 18 pages in a 5-page
// area. joinPartitions holds at most the area at a time and re-reads s
// for each further chunk, as Section 3.4 prescribes for an overflowing
// partition.
TEST(OnePartitionLoopTest, CollapsedPlanChunksInBuffSize) {
  const OnePartitionInputs in = CollapsedInputs();
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  PartitionJoinOptions options;
  options.buffer_pages = 8;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionVtJoin(r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.Get(Metric::kPartitions), 1.0);
  const double chunks = stats.Get(Metric::kOverflowChunks);
  EXPECT_GE(chunks, static_cast<double>(r->num_pages() / 5 - 1));
  // One scan of r for the sample, one to fill the area chunk by chunk, and
  // one scan of s per chunk; no Grace pass and no tuple cache.
  EXPECT_EQ(stats.io.total_ops(),
            2 * r->num_pages() +
                static_cast<uint64_t>(chunks + 1) * s->num_pages());
  EXPECT_EQ(stats.Get(Metric::kPartitionPagesWritten), 0.0);
}

}  // namespace
}  // namespace tempo
