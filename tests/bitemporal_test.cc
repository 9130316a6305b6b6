#include <gtest/gtest.h>

#include "bitemporal/bitemporal_relation.h"
#include "join/reference_join.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

class BitemporalTest : public ::testing::Test {
 protected:
  BitemporalTest() : rel_(&disk_, TestSchema(), "bt") {}

  Disk disk_;
  BitemporalRelation rel_;
};

TEST_F(BitemporalTest, InsertAndSnapshot) {
  TEMPO_ASSERT_OK(rel_.Insert(T(1, "a", 0, 100), 10));
  TEMPO_ASSERT_OK(rel_.Insert(T(2, "b", 50, 200), 20));

  // Before anything was recorded: empty database state.
  TEMPO_ASSERT_OK_AND_ASSIGN(auto at5, rel_.SnapshotAsOf(5));
  EXPECT_TRUE(at5.empty());

  // Between the inserts: only the first fact.
  TEMPO_ASSERT_OK_AND_ASSIGN(auto at15, rel_.SnapshotAsOf(15));
  ASSERT_EQ(at15.size(), 1u);
  EXPECT_EQ(at15[0], T(1, "a", 0, 100));

  // Now: both.
  TEMPO_ASSERT_OK_AND_ASSIGN(auto at25, rel_.SnapshotAsOf(25));
  EXPECT_EQ(at25.size(), 2u);
}

TEST_F(BitemporalTest, DeleteClosesButPreservesHistory) {
  Tuple t = T(1, "a", 0, 100);
  TEMPO_ASSERT_OK(rel_.Insert(t, 10));
  TEMPO_ASSERT_OK(rel_.Delete(t, 30));

  // The fact is gone from the current state...
  TEMPO_ASSERT_OK_AND_ASSIGN(auto now, rel_.SnapshotAsOf(30));
  EXPECT_TRUE(now.empty());
  // ...but still visible as of any instant in [10, 29].
  TEMPO_ASSERT_OK_AND_ASSIGN(auto before, rel_.SnapshotAsOf(29));
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0], t);
  // And the version itself was never physically removed.
  EXPECT_EQ(rel_.num_versions(), 1u);
}

TEST_F(BitemporalTest, DeleteMissingFails) {
  TEMPO_ASSERT_OK(rel_.Insert(T(1, "a", 0, 100), 10));
  EXPECT_EQ(rel_.Delete(T(2, "b", 0, 100), 20).code(),
            StatusCode::kNotFound);
  // Deleting an already-deleted version also fails.
  TEMPO_ASSERT_OK(rel_.Delete(T(1, "a", 0, 100), 20));
  EXPECT_EQ(rel_.Delete(T(1, "a", 0, 100), 25).code(),
            StatusCode::kNotFound);
}

TEST_F(BitemporalTest, UpdateIsDeletePlusInsert) {
  TEMPO_ASSERT_OK(rel_.Insert(T(1, "a", 0, 100), 10));
  TEMPO_ASSERT_OK(rel_.Update(T(1, "a", 0, 100), T(1, "a", 0, 150), 20));

  TEMPO_ASSERT_OK_AND_ASSIGN(auto at15, rel_.SnapshotAsOf(15));
  ASSERT_EQ(at15.size(), 1u);
  EXPECT_EQ(at15[0].interval(), Interval(0, 100));

  TEMPO_ASSERT_OK_AND_ASSIGN(auto at20, rel_.SnapshotAsOf(20));
  ASSERT_EQ(at20.size(), 1u);
  EXPECT_EQ(at20[0].interval(), Interval(0, 150));
  EXPECT_EQ(rel_.num_versions(), 2u);
}

TEST_F(BitemporalTest, ClockMustNotGoBackwards) {
  TEMPO_ASSERT_OK(rel_.Insert(T(1, "a", 0, 1), 10));
  EXPECT_FALSE(rel_.Insert(T(2, "b", 0, 1), 5).ok());
  // Equal instants are allowed (one transaction, several operations).
  TEMPO_ASSERT_OK(rel_.Insert(T(3, "c", 0, 1), 10));
  // The until-changed sentinel is not a valid instant.
  EXPECT_FALSE(rel_.Insert(T(4, "d", 0, 1), kTxUntilChanged).ok());
}

TEST_F(BitemporalTest, BitemporalTimeslice) {
  TEMPO_ASSERT_OK(rel_.Insert(T(1, "a", 0, 100), 10));
  TEMPO_ASSERT_OK(rel_.Insert(T(2, "b", 200, 300), 10));
  TEMPO_ASSERT_OK(rel_.Delete(T(1, "a", 0, 100), 20));

  // As the database stood at tx 15, what held at valid time 50?
  TEMPO_ASSERT_OK_AND_ASSIGN(auto slice, rel_.Timeslice(15, 50));
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice[0].value(0).AsInt64(), 1);
  EXPECT_EQ(slice[0].interval(), Interval::At(50));

  // As of tx 25, tuple 1 was retracted: nothing held at vt 50.
  TEMPO_ASSERT_OK_AND_ASSIGN(auto later, rel_.Timeslice(25, 50));
  EXPECT_TRUE(later.empty());
}

TEST_F(BitemporalTest, VersionsSpanManyPages) {
  // Force multi-page storage and delete from a middle page (the in-place
  // transaction-close must find and patch the right page).
  for (int i = 0; i < 500; ++i) {
    TEMPO_ASSERT_OK(rel_.Insert(T(i, "payload-" + std::to_string(i), 0, 10),
                                i + 1));
  }
  EXPECT_GT(rel_.store()->num_pages(), 1u);
  Tuple victim = T(250, "payload-250", 0, 10);
  TEMPO_ASSERT_OK(rel_.Delete(victim, 600));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto snap, rel_.SnapshotAsOf(600));
  EXPECT_EQ(snap.size(), 499u);
  for (const Tuple& t : snap) {
    EXPECT_NE(t.value(0).AsInt64(), 250);
  }
  // History before the delete still has it.
  TEMPO_ASSERT_OK_AND_ASSIGN(auto old_snap, rel_.SnapshotAsOf(599));
  EXPECT_EQ(old_snap.size(), 500u);
}

TEST_F(BitemporalTest, MaterializeAsOfFeedsDiskOperators) {
  for (int i = 0; i < 100; ++i) {
    TEMPO_ASSERT_OK(rel_.Insert(T(i % 10, "v" + std::to_string(i), i, i + 50),
                                i + 1));
  }
  TEMPO_ASSERT_OK_AND_ASSIGN(auto materialized,
                             rel_.MaterializeAsOf(60, "snap"));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto in_memory, rel_.SnapshotAsOf(60));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto from_disk, materialized->ReadAll());
  EXPECT_TRUE(SameTupleMultiset(from_disk, in_memory));
  EXPECT_EQ(materialized->schema(), rel_.user_schema());
}

// The store's pages after deletes were recorded before Delete stopped
// re-encoding the records it leaves alone. One deleted version is stored
// with -0.0 and deleted as 0.0: the closed version carries the deleting
// tuple's values, as it always has.
TEST(BitemporalStoreTest, DeletePagesMatchGoldenDigest) {
  Disk disk;
  const Schema schema({{"k", ValueType::kInt64},
                       {"s", ValueType::kString},
                       {"d", ValueType::kDouble}});
  BitemporalRelation rel(&disk, schema, "bt");
  auto version = [](int i) {
    Value s = i % 4 == 0 ? Value::Null() : Value("s" + std::to_string(i));
    Value d = i % 5 == 0 ? Value::Null()
                         : i == 7 ? Value(-0.0)
                                  : Value(i * 0.5);
    return Tuple({Value(int64_t{i}), s, d}, Interval(i, i + 10));
  };
  TxTime now = 1;
  for (int i = 0; i < 400; ++i) TEMPO_ASSERT_OK(rel.Insert(version(i), now++));
  ASSERT_GT(rel.store()->num_pages(), 3u);
  for (int i : {0, 7, 150, 151, 399}) {
    Tuple t = version(i);
    if (i == 7) t = Tuple({Value(int64_t{7}), t.value(1), Value(0.0)},
                          t.interval());
    TEMPO_ASSERT_OK(rel.Delete(t, now++));
  }
  TEMPO_ASSERT_OK(rel.Update(version(200), version(1000), now++));
  EXPECT_EQ(rel.num_versions(), 401u);
  EXPECT_EQ(::tempo::testing::PageDigest(rel.store()),
            2101102400313747354ull);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto current, rel.SnapshotAsOf(now));
  EXPECT_EQ(current.size(), 395u);
}

TEST(BitemporalJoinTest, AsOfJoinMatchesSnapshotOracle) {
  Disk disk;
  Schema r_schema({{"key", ValueType::kInt64}, {"name", ValueType::kString}});
  Schema s_schema({{"key", ValueType::kInt64}, {"dept", ValueType::kString}});
  BitemporalRelation r(&disk, r_schema, "r");
  BitemporalRelation s(&disk, s_schema, "s");

  Random rng(5);
  TxTime clock = 1;
  std::vector<Tuple> r_live, s_live;
  for (int i = 0; i < 200; ++i, ++clock) {
    Chronon vs = rng.UniformRange(0, 400);
    Tuple tr({Value(static_cast<int64_t>(rng.Uniform(20))),
              Value("n" + std::to_string(i))},
             Interval(vs, vs + rng.UniformRange(0, 60)));
    TEMPO_ASSERT_OK(r.Insert(tr, clock));
    r_live.push_back(tr);
    Chronon ss = rng.UniformRange(0, 400);
    Tuple ts({Value(static_cast<int64_t>(rng.Uniform(20))),
              Value("d" + std::to_string(i))},
             Interval(ss, ss + rng.UniformRange(0, 60)));
    TEMPO_ASSERT_OK(s.Insert(ts, clock));
    s_live.push_back(ts);
    // Occasionally retract something.
    if (i % 7 == 3 && !r_live.empty()) {
      size_t idx = rng.Uniform(r_live.size());
      TEMPO_ASSERT_OK(r.Delete(r_live[idx], clock));
      r_live.erase(r_live.begin() + idx);
    }
  }
  const TxTime as_of = 150;

  TEMPO_ASSERT_OK_AND_ASSIGN(auto layout,
                             DeriveNaturalJoinLayout(r_schema, s_schema));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 16;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             BitemporalJoinAsOf(&r, &s, as_of, &out, options));

  TEMPO_ASSERT_OK_AND_ASSIGN(auto r_snap, r.SnapshotAsOf(as_of));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto s_snap, s.SnapshotAsOf(as_of));
  TEMPO_ASSERT_OK_AND_ASSIGN(
      auto expected,
      ReferenceJoin(r_schema, r_snap, s_schema, s_snap));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto actual, out.ReadAll());
  EXPECT_EQ(stats.output_tuples, expected.size());
  EXPECT_TRUE(SameTupleMultiset(actual, expected));
}

TEST(BitemporalJoinTest, DifferentAsOfInstantsSeeDifferentStates) {
  Disk disk;
  Schema schema({{"key", ValueType::kInt64}, {"v", ValueType::kString}});
  Schema schema2({{"key", ValueType::kInt64}, {"w", ValueType::kString}});
  BitemporalRelation r(&disk, schema, "r");
  BitemporalRelation s(&disk, schema2, "s");
  Tuple tr({Value(int64_t{1}), Value("x")}, Interval(0, 100));
  Tuple ts({Value(int64_t{1}), Value("y")}, Interval(50, 150));
  TEMPO_ASSERT_OK(r.Insert(tr, 10));
  TEMPO_ASSERT_OK(s.Insert(ts, 10));
  TEMPO_ASSERT_OK(r.Delete(tr, 40));

  TEMPO_ASSERT_OK_AND_ASSIGN(auto layout,
                             DeriveNaturalJoinLayout(schema, schema2));
  ExecOptions options;
  options.buffer_pages = 8;

  StoredRelation out1(&disk, layout.output, "out1");
  TEMPO_ASSERT_OK_AND_ASSIGN(auto at20,
                             BitemporalJoinAsOf(&r, &s, 20, &out1, options));
  EXPECT_EQ(at20.output_tuples, 1u);

  StoredRelation out2(&disk, layout.output, "out2");
  TEMPO_ASSERT_OK_AND_ASSIGN(auto at45,
                             BitemporalJoinAsOf(&r, &s, 45, &out2, options));
  EXPECT_EQ(at45.output_tuples, 0u);
}

// A fault during either side's snapshot materialization fails the call
// and leaves the disk exactly as it was: neither a partly written
// snapshot nor the other side's finished one stays behind.
TEST(BitemporalJoinTest, FailedMaterializationLeavesNoSnapshotPages) {
  Disk disk;
  Schema r_schema({{"key", ValueType::kInt64}, {"name", ValueType::kString}});
  Schema s_schema({{"key", ValueType::kInt64}, {"dept", ValueType::kString}});
  BitemporalRelation r(&disk, r_schema, "r");
  BitemporalRelation s(&disk, s_schema, "s");
  Random rng(9);
  for (TxTime clock = 1; clock <= 300; ++clock) {
    Chronon vs = rng.UniformRange(0, 400);
    TEMPO_ASSERT_OK(
        r.Insert(Tuple({Value(static_cast<int64_t>(rng.Uniform(20))),
                        Value("n" + std::to_string(clock))},
                       Interval(vs, vs + rng.UniformRange(0, 60))),
                 clock));
    TEMPO_ASSERT_OK(
        s.Insert(Tuple({Value(static_cast<int64_t>(rng.Uniform(20))),
                        Value("d" + std::to_string(clock))},
                       Interval(vs, vs + rng.UniformRange(0, 60))),
                 clock));
  }
  const TxTime as_of = 200;

  // The page accesses both materializations make, counted on a clean run.
  // The snapshots are deleted with their owners.
  const uint64_t pages_before = disk.TotalPages();
  const IoStats before = disk.accountant().stats();
  {
    TEMPO_ASSERT_OK_AND_ASSIGN(auto r_snap, r.MaterializeAsOf(as_of, "r"));
    TEMPO_ASSERT_OK_AND_ASSIGN(auto s_snap, s.MaterializeAsOf(as_of, "s"));
  }
  EXPECT_EQ(disk.TotalPages(), pages_before);
  const uint64_t materialize_ops =
      (disk.accountant().stats() - before).total_ops();
  ASSERT_GT(materialize_ops, 4u);

  TEMPO_ASSERT_OK_AND_ASSIGN(auto layout,
                             DeriveNaturalJoinLayout(r_schema, s_schema));
  ExecOptions options;
  options.buffer_pages = 8;
  for (uint64_t k = 0; k < materialize_ops; ++k) {
    StoredRelation out(&disk, layout.output, "out");
    disk.InjectFaultAfter(k);
    StatusOr<JoinRunStats> stats =
        BitemporalJoinAsOf(&r, &s, as_of, &out, options);
    disk.ClearFault();
    EXPECT_FALSE(stats.ok()) << "fault after " << k << " ops";
    EXPECT_EQ(disk.TotalPages(), pages_before) << "fault after " << k
                                               << " ops";
    TEMPO_ASSERT_OK(disk.DeleteFile(out.file_id()));
  }
}

}  // namespace
}  // namespace tempo
