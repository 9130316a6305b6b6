#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "sampling/kolmogorov.h"
#include "sampling/relation_sampler.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

TEST(KolmogorovTest, DeviationShrinksWithSamples) {
  EXPECT_DOUBLE_EQ(KolmogorovDeviation(100), 1.63 / 10.0);
  EXPECT_GT(KolmogorovDeviation(100), KolmogorovDeviation(400));
}

TEST(KolmogorovTest, RequiredSamplesMatchesPaperFormula) {
  // m >= ((1.63 * |r|) / errorSize)^2.
  EXPECT_EQ(RequiredKolmogorovSamples(8192, 8192),
            static_cast<uint64_t>(std::ceil(1.63 * 1.63)));
  // errorSize = |r|/8: m >= (1.63*8)^2 = 170.0... -> 171.
  EXPECT_EQ(RequiredKolmogorovSamples(8192, 1024), 171u);
}

TEST(KolmogorovTest, RequiredSamplesDependsOnlyOnRatio) {
  // Footnote 2: the bound depends only on |r|/errorSize.
  EXPECT_EQ(RequiredKolmogorovSamples(8192, 1024),
            RequiredKolmogorovSamples(16384, 2048));
  EXPECT_EQ(RequiredKolmogorovSamples(100, 10),
            RequiredKolmogorovSamples(1000, 100));
}

TEST(KolmogorovTest, TighterConfidenceNeedsMoreSamples) {
  EXPECT_LT(RequiredKolmogorovSamples(8192, 512, KolmogorovCritical::k90),
            RequiredKolmogorovSamples(8192, 512, KolmogorovCritical::k99));
}

TEST(KolmogorovTest, MinimumOneSample) {
  EXPECT_GE(RequiredKolmogorovSamples(1, 1000000), 1u);
}

class RelationSamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Tuple> tuples;
    for (int i = 0; i < 600; ++i) {
      tuples.push_back(T(i, "some-padding-text", i * 10, i * 10 + 5));
    }
    rel_ = MakeRelation(&disk_, TestSchema(), tuples, "r");
    disk_.accountant().Reset();
  }

  Disk disk_;
  std::unique_ptr<StoredRelation> rel_;
};

TEST_F(RelationSamplerTest, DrawsRequestedCount) {
  Random rng(1);
  RelationSampler sampler(rel_.get(), &rng);
  TEMPO_ASSERT_OK_AND_ASSIGN(uint64_t drawn, sampler.DrawRandom(50));
  EXPECT_EQ(drawn, 50u);
  EXPECT_EQ(sampler.samples().size(), 50u);
}

TEST_F(RelationSamplerTest, SamplesAreDistinctTuples) {
  Random rng(2);
  RelationSampler sampler(rel_.get(), &rng);
  TEMPO_ASSERT_OK(sampler.DrawRandom(600).status());
  // All 600 distinct tuples drawn: intervals are unique by construction.
  std::set<Chronon> starts;
  for (const Interval& iv : sampler.samples()) starts.insert(iv.start());
  EXPECT_EQ(starts.size(), 600u);
}

TEST_F(RelationSamplerTest, DrawClampsToPopulation) {
  Random rng(3);
  RelationSampler sampler(rel_.get(), &rng);
  TEMPO_ASSERT_OK_AND_ASSIGN(uint64_t drawn, sampler.DrawRandom(10000));
  EXPECT_EQ(drawn, 600u);
  TEMPO_ASSERT_OK_AND_ASSIGN(uint64_t more, sampler.DrawRandom(5));
  EXPECT_EQ(more, 0u);
}

TEST_F(RelationSamplerTest, RandomDrawsChargeRandomReads) {
  Random rng(4);
  RelationSampler sampler(rel_.get(), &rng);
  TEMPO_ASSERT_OK(sampler.DrawRandom(20).status());
  // Each sample reads one page; nearly all should be random (some may
  // land on the previously read page and count sequential).
  EXPECT_EQ(disk_.accountant().stats().total_ops(), 20u);
  EXPECT_GT(disk_.accountant().stats().random_reads, 10u);
}

TEST_F(RelationSamplerTest, ScanMakesFurtherDrawsFree) {
  Random rng(5);
  RelationSampler sampler(rel_.get(), &rng);
  TEMPO_ASSERT_OK(sampler.SwitchToScan());
  uint64_t after_scan = disk_.accountant().stats().total_ops();
  EXPECT_EQ(after_scan, rel_->num_pages());
  TEMPO_ASSERT_OK(sampler.DrawRandom(300).status());
  EXPECT_EQ(disk_.accountant().stats().total_ops(), after_scan);
  EXPECT_EQ(sampler.samples().size(), 300u);
}

TEST_F(RelationSamplerTest, ScanIsIdempotent) {
  Random rng(6);
  RelationSampler sampler(rel_.get(), &rng);
  TEMPO_ASSERT_OK(sampler.SwitchToScan());
  uint64_t ops = disk_.accountant().stats().total_ops();
  TEMPO_ASSERT_OK(sampler.SwitchToScan());
  EXPECT_EQ(disk_.accountant().stats().total_ops(), ops);
}

TEST_F(RelationSamplerTest, CostEstimates) {
  Random rng(7);
  RelationSampler sampler(rel_.get(), &rng);
  EXPECT_DOUBLE_EQ(sampler.EstimateDrawCost(10, 5.0), 50.0);
  double scan = sampler.ScanCost(5.0);
  EXPECT_DOUBLE_EQ(scan, 5.0 + (rel_->num_pages() - 1));
  TEMPO_ASSERT_OK(sampler.SwitchToScan());
  EXPECT_DOUBLE_EQ(sampler.EstimateDrawCost(10, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(sampler.ScanCost(5.0), 0.0);
}

TEST_F(RelationSamplerTest, SamplesRoughlyUniformOverTime) {
  Random rng(8);
  RelationSampler sampler(rel_.get(), &rng);
  TEMPO_ASSERT_OK(sampler.DrawRandom(300).status());
  // Tuples have starts i*10 for i in [0,600): half should start below the
  // median 3000, within generous bounds.
  int below = 0;
  for (const Interval& iv : sampler.samples()) {
    if (iv.start() < 3000) ++below;
  }
  EXPECT_GT(below, 100);
  EXPECT_LT(below, 200);
}

TEST_F(RelationSamplerTest, IntervalReadsMatchDecodedTuplesAndTheirIo) {
  // ReadIntervalRandom, the sampler's random path: the interval of the
  // tuple at that ordinal, for one random page read.
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> all, rel_->ReadAll());
  for (uint64_t idx : {uint64_t{0}, uint64_t{1}, uint64_t{299}, uint64_t{17},
                       uint64_t{599}}) {
    disk_.accountant().Reset();
    TEMPO_ASSERT_OK_AND_ASSIGN(Interval iv, rel_->ReadIntervalRandom(idx));
    EXPECT_EQ(iv, all[idx].interval()) << idx;
    const IoStats io = disk_.accountant().stats();
    EXPECT_EQ(io.random_reads, 1u) << idx;
    EXPECT_EQ(io.total_ops(), 1u) << idx;
  }
  EXPECT_EQ(rel_->ReadIntervalRandom(600).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(RelationSamplerTest, ScanChargesWhatAFullScanChargesAndSeesEveryTuple) {
  Random rng(6);
  RelationSampler sampler(rel_.get(), &rng);
  TEMPO_ASSERT_OK(sampler.SwitchToScan());
  const IoStats scan_io = disk_.accountant().stats();
  disk_.accountant().Reset();
  TEMPO_ASSERT_OK(rel_->ReadAll().status());
  EXPECT_TRUE(scan_io == disk_.accountant().stats())
      << scan_io.ToString() << " vs " << disk_.accountant().stats().ToString();

  TEMPO_ASSERT_OK(sampler.DrawRandom(600).status());
  std::set<Chronon> starts;
  for (const Interval& iv : sampler.samples()) {
    EXPECT_EQ(iv.end(), iv.start() + 5);
    starts.insert(iv.start());
  }
  EXPECT_EQ(starts.size(), 600u);
}

TEST(RelationSamplerChecksTest, CorruptAndUnflushedRecordsFailTheDraw) {
  Disk disk;
  StoredRelation rel(&disk, TestSchema(), "r");
  std::string record;
  T(1, "x", 1, 2).SerializeTo(TestSchema(), &record);
  const uint64_t late_start = 1000;  // start > end: invalid interval
  std::memcpy(record.data(), &late_start, 8);
  TEMPO_ASSERT_OK(rel.AppendRecord(record));
  TEMPO_ASSERT_OK(rel.Flush());
  Random rng(7);
  {
    RelationSampler sampler(&rel, &rng);
    EXPECT_EQ(sampler.DrawRandom(1).status().code(), StatusCode::kCorruption);
  }
  {
    RelationSampler sampler(&rel, &rng);
    EXPECT_EQ(sampler.SwitchToScan().code(), StatusCode::kCorruption);
  }

  // A tuple still in the append buffer counts in the population but has
  // no page to read.
  StoredRelation pending(&disk, TestSchema(), "pending");
  TEMPO_ASSERT_OK(pending.Append(T(1, "x", 1, 2)));
  RelationSampler sampler(&pending, &rng);
  EXPECT_EQ(sampler.DrawRandom(1).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace tempo
