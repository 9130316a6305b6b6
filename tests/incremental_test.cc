#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "incremental/materialized_view.h"
#include "join/reference_join.h"
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

class ViewTest : public ::testing::Test {
 protected:
  void Build(size_t r_count, size_t s_count, double llp, uint32_t buffer,
             uint64_t seed = 17) {
    Random rng(seed);
    r_tuples_ = RandomTuples(rng, r_count, 15, 300, llp);
    for (const Tuple& t : RandomTuples(rng, s_count, 15, 300, llp)) {
      s_tuples_.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                            t.interval().start(), t.interval().end()));
    }
    r_ = MakeRelation(&disk_, TestSchema(), r_tuples_, "r");
    s_ = MakeRelation(&disk_, SSchema(), s_tuples_, "s");
    view_ = std::make_unique<MaterializedVtJoinView>(&disk_, "view");
    TEMPO_ASSERT_OK(view_->Build(r_.get(), s_.get(), buffer));
  }

  void ExpectViewMatchesOracle() {
    TEMPO_ASSERT_OK_AND_ASSIGN(
        std::vector<Tuple> expected,
        ReferenceJoin(TestSchema(), r_tuples_, SSchema(), s_tuples_));
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual,
                               view_->ReadResult());
    EXPECT_TRUE(SameTupleMultiset(actual, expected))
        << "view has " << actual.size() << ", oracle " << expected.size();
    EXPECT_EQ(view_->result_tuples(), expected.size());
  }

  Disk disk_;
  std::vector<Tuple> r_tuples_, s_tuples_;
  std::unique_ptr<StoredRelation> r_, s_;
  std::unique_ptr<MaterializedVtJoinView> view_;
};

TEST_F(ViewTest, BuildMatchesOracle) {
  Build(800, 700, 0.3, 5);
  EXPECT_GT(view_->num_partitions(), 1u);
  ExpectViewMatchesOracle();
}

TEST_F(ViewTest, BuildSinglePartition) {
  Build(50, 50, 0.2, 4096);
  EXPECT_EQ(view_->num_partitions(), 1u);
  ExpectViewMatchesOracle();
}

TEST_F(ViewTest, InsertRMaintainsView) {
  Build(700, 700, 0.3, 5);
  for (int i = 0; i < 20; ++i) {
    Tuple t = T(i % 15, "new" + std::to_string(i), i * 10, i * 10 + 40);
    TEMPO_ASSERT_OK(view_->InsertR(t).status());
    r_tuples_.push_back(t);
  }
  ExpectViewMatchesOracle();
}

TEST_F(ViewTest, InsertSMaintainsView) {
  Build(700, 700, 0.3, 5);
  for (int i = 0; i < 20; ++i) {
    Tuple t = S(i % 15, "dep" + std::to_string(i), i * 12, i * 12 + 30);
    TEMPO_ASSERT_OK(view_->InsertS(t).status());
    s_tuples_.push_back(t);
  }
  ExpectViewMatchesOracle();
}

TEST_F(ViewTest, InsertLongLivedTupleSpanningAllPartitions) {
  Build(700, 700, 0.2, 5);
  Tuple t = T(3, "span", 0, 299);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto stats, view_->InsertR(t));
  EXPECT_EQ(stats.partitions_touched, view_->num_partitions());
  r_tuples_.push_back(t);
  ExpectViewMatchesOracle();
}

TEST_F(ViewTest, DeleteRMaintainsView) {
  Build(600, 600, 0.3, 5);
  for (int i = 0; i < 10; ++i) {
    Tuple victim = r_tuples_.back();
    r_tuples_.pop_back();
    TEMPO_ASSERT_OK(view_->DeleteR(victim).status());
  }
  ExpectViewMatchesOracle();
}

TEST_F(ViewTest, DeleteSMaintainsView) {
  Build(600, 600, 0.3, 5);
  for (int i = 0; i < 10; ++i) {
    Tuple victim = s_tuples_.front();
    s_tuples_.erase(s_tuples_.begin());
    TEMPO_ASSERT_OK(view_->DeleteS(victim).status());
  }
  ExpectViewMatchesOracle();
}

TEST_F(ViewTest, DeleteMissingTupleFails) {
  Build(50, 50, 0.0, 10);
  auto result = view_->DeleteR(T(999, "ghost", 0, 1));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  ExpectViewMatchesOracle();  // failed delete leaves the view intact
}

TEST_F(ViewTest, MixedWorkloadStaysConsistent) {
  Build(600, 600, 0.4, 5, 23);
  Random rng(99);
  for (int i = 0; i < 30; ++i) {
    switch (rng.Uniform(4)) {
      case 0: {
        Tuple t = T(rng.Uniform(15), "mix" + std::to_string(i),
                    rng.UniformRange(0, 250), rng.UniformRange(250, 299));
        TEMPO_ASSERT_OK(view_->InsertR(t).status());
        r_tuples_.push_back(t);
        break;
      }
      case 1: {
        Tuple t = S(rng.Uniform(15), "mix" + std::to_string(i),
                    rng.UniformRange(0, 150), rng.UniformRange(150, 299));
        TEMPO_ASSERT_OK(view_->InsertS(t).status());
        s_tuples_.push_back(t);
        break;
      }
      case 2:
        if (!r_tuples_.empty()) {
          size_t idx = rng.Uniform(r_tuples_.size());
          TEMPO_ASSERT_OK(view_->DeleteR(r_tuples_[idx]).status());
          r_tuples_.erase(r_tuples_.begin() + idx);
        }
        break;
      default:
        if (!s_tuples_.empty()) {
          size_t idx = rng.Uniform(s_tuples_.size());
          TEMPO_ASSERT_OK(view_->DeleteS(s_tuples_[idx]).status());
          s_tuples_.erase(s_tuples_.begin() + idx);
        }
        break;
    }
  }
  ExpectViewMatchesOracle();
}

/// FNV-1a over the serialized records of `tuples`, in order.
uint64_t OrderedDigest(const Schema& schema, const std::vector<Tuple>& tuples) {
  uint64_t h = 14695981039346656037ull;
  std::string rec;
  for (const Tuple& t : tuples) {
    rec.clear();
    t.SerializeTo(schema, &rec);
    for (unsigned char c : rec) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xff) * 1099511628211ull;  // record separator
  }
  return h;
}

TEST_F(ViewTest, OrderedResultMatchesGoldenDigest) {
  // The oracle checks above compare multisets; this pins the order in
  // which the view stores its result — partition by partition, each in
  // its build, insert and recompute emission order — after inserts and
  // deletes on both sides, short and long-lived.
  Build(800, 700, 0.3, 5);
  ASSERT_GT(view_->num_partitions(), 2u);
  for (int i = 0; i < 12; ++i) {
    const Chronon start = (i * 23) % 280;
    const Chronon end = start + (i % 3 == 0 ? 200 : 15);
    Tuple r = T(i % 15, "ins" + std::to_string(i), start, end);
    TEMPO_ASSERT_OK(view_->InsertR(r).status());
    r_tuples_.push_back(r);
    Tuple s = S((i * 7) % 15, "ins" + std::to_string(i), end - 10, end + 30);
    TEMPO_ASSERT_OK(view_->InsertS(s).status());
    s_tuples_.push_back(s);
  }
  for (size_t idx : {5u, 300u, 650u}) {
    TEMPO_ASSERT_OK(view_->DeleteR(r_tuples_[idx]).status());
    r_tuples_.erase(r_tuples_.begin() + idx);
    TEMPO_ASSERT_OK(view_->DeleteS(s_tuples_[idx]).status());
    s_tuples_.erase(s_tuples_.begin() + idx);
  }
  ExpectViewMatchesOracle();
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> result, view_->ReadResult());
  EXPECT_EQ(result.size(), 6963u);
  EXPECT_EQ(OrderedDigest(view_->output_schema(), result),
            10032506997440813882ull);
}

TEST_F(ViewTest, ShortInsertTouchesFewPartitions) {
  Build(900, 900, 0.2, 4);
  ASSERT_GT(view_->num_partitions(), 2u);
  Tuple t = T(1, "pin", 150, 150);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto stats, view_->InsertR(t));
  EXPECT_EQ(stats.partitions_touched, 1u);
  r_tuples_.push_back(t);
  ExpectViewMatchesOracle();
}

TEST_F(ViewTest, IncrementalInsertCheaperThanRebuild) {
  Build(900, 900, 0.2, 5);
  // Cost of one short insert.
  Tuple t = T(2, "cheap", 100, 110);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto stats, view_->InsertR(t));
  r_tuples_.push_back(t);
  // Cost of a full recompute (fresh view over the same data).
  IoStats before = disk_.accountant().stats();
  auto r2 = MakeRelation(&disk_, TestSchema(), r_tuples_, "r2");
  auto s2 = MakeRelation(&disk_, SSchema(), s_tuples_, "s2");
  MaterializedVtJoinView rebuilt(&disk_, "view2");
  TEMPO_ASSERT_OK(rebuilt.Build(r2.get(), s2.get(), 5));
  IoStats rebuild_io = disk_.accountant().stats() - before;
  CostModel model = CostModel::Ratio(5.0);
  EXPECT_LT(stats.io.Cost(model), rebuild_io.Cost(model) / 3.0);
}

TEST_F(ViewTest, UnbuiltViewRejectsOperations) {
  MaterializedVtJoinView view(&disk_, "cold");
  EXPECT_FALSE(view.InsertR(T(1, "a", 0, 1)).ok());
  EXPECT_FALSE(view.ReadResult().ok());
}

TEST_F(ViewTest, DoubleBuildRejected) {
  Build(50, 50, 0.0, 10);
  EXPECT_EQ(view_->Build(r_.get(), s_.get(), 10).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace tempo
