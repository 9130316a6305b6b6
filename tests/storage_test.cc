#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/disk.h"
#include "storage/io_accountant.h"
#include "storage/page.h"
#include "storage/stored_relation.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

// ---------------------------------------------------------------------
// Page
// ---------------------------------------------------------------------

TEST(PageTest, StartsEmpty) {
  Page p;
  EXPECT_EQ(p.num_records(), 0);
  EXPECT_GT(p.FreeSpace(), 4000u);
}

TEST(PageTest, AddAndGet) {
  Page p;
  auto s1 = p.AddRecord("hello");
  auto s2 = p.AddRecord("world!");
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(p.GetRecord(*s1), "hello");
  EXPECT_EQ(p.GetRecord(*s2), "world!");
  EXPECT_EQ(p.num_records(), 2);
}

TEST(PageTest, ZeroLengthRecord) {
  Page p;
  auto slot = p.AddRecord("");
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(p.GetRecord(*slot), "");
}

TEST(PageTest, FillsToCapacityThenRejects) {
  Page p;
  std::string rec(100, 'a');
  int added = 0;
  while (p.AddRecord(rec).has_value()) ++added;
  // 100 bytes + 4 slot bytes per record, 4 header bytes: 39 records fit.
  EXPECT_EQ(added, static_cast<int>((kPageSize - 4) / 104));
  EXPECT_FALSE(p.Fits(rec.size()));
  // A smaller record may still fit.
  EXPECT_EQ(p.num_records(), added);
}

TEST(PageTest, MaxRecordSizeFitsExactly) {
  Page p;
  std::string rec(kMaxRecordSize, 'b');
  EXPECT_TRUE(p.AddRecord(rec).has_value());
  EXPECT_FALSE(p.AddRecord("").has_value());
}

TEST(PageTest, OversizeRecordRejected) {
  Page p;
  std::string rec(kMaxRecordSize + 1, 'b');
  EXPECT_FALSE(p.AddRecord(rec).has_value());
}

TEST(PageTest, ResetClears) {
  Page p;
  p.AddRecord("data");
  p.Reset();
  EXPECT_EQ(p.num_records(), 0);
}

TEST(PageTest, CopyPreservesContents) {
  Page p;
  p.AddRecord("abc");
  Page q = p;
  EXPECT_EQ(q.GetRecord(0), "abc");
}

// ---------------------------------------------------------------------
// IoAccountant
// ---------------------------------------------------------------------

TEST(IoAccountantTest, SequentialRunCostsOneRandom) {
  IoAccountant acct;
  for (uint32_t p = 0; p < 10; ++p) acct.RecordRead(1, p, true);
  EXPECT_EQ(acct.stats().random_reads, 1u);
  EXPECT_EQ(acct.stats().sequential_reads, 9u);
}

TEST(IoAccountantTest, BackwardJumpIsRandom) {
  IoAccountant acct;
  acct.RecordRead(1, 5, true);
  acct.RecordRead(1, 4, true);
  EXPECT_EQ(acct.stats().random_reads, 2u);
}

TEST(IoAccountantTest, RetouchSamePageIsSequential) {
  IoAccountant acct;
  acct.RecordRead(1, 5, true);
  acct.RecordRead(1, 5, true);
  EXPECT_EQ(acct.stats().random_reads, 1u);
  EXPECT_EQ(acct.stats().sequential_reads, 1u);
}

TEST(IoAccountantTest, PerFileModelKeepsStreamsIndependent) {
  IoAccountant acct;
  acct.set_head_model(HeadModel::kPerFile);
  // Interleave two files; each stays sequential after its first access.
  for (uint32_t p = 0; p < 5; ++p) {
    acct.RecordRead(1, p, true);
    acct.RecordRead(2, p, true);
  }
  EXPECT_EQ(acct.stats().random_reads, 2u);
  EXPECT_EQ(acct.stats().sequential_reads, 8u);
}

TEST(IoAccountantTest, SingleHeadModelChargesInterleaving) {
  IoAccountant acct;
  acct.set_head_model(HeadModel::kSingleHead);
  for (uint32_t p = 0; p < 5; ++p) {
    acct.RecordRead(1, p, true);
    acct.RecordRead(2, p, true);
  }
  // Every access switches files: all random.
  EXPECT_EQ(acct.stats().random_reads, 10u);
  EXPECT_EQ(acct.stats().sequential_reads, 0u);
}

TEST(IoAccountantTest, UnchargedAccessesInvisible) {
  IoAccountant acct;
  acct.RecordRead(1, 0, true);
  acct.RecordWrite(2, 0, false);  // uncharged: no count, no head movement
  acct.RecordRead(1, 1, true);
  EXPECT_EQ(acct.stats().random_reads, 1u);
  EXPECT_EQ(acct.stats().sequential_reads, 1u);
  EXPECT_EQ(acct.stats().random_writes, 0u);
}

TEST(IoAccountantTest, WritesClassifiedLikeReads) {
  IoAccountant acct;
  for (uint32_t p = 0; p < 4; ++p) acct.RecordWrite(3, p, true);
  EXPECT_EQ(acct.stats().random_writes, 1u);
  EXPECT_EQ(acct.stats().sequential_writes, 3u);
}

TEST(IoAccountantTest, CostAppliesWeights) {
  IoStats stats;
  stats.random_reads = 3;
  stats.sequential_reads = 10;
  EXPECT_DOUBLE_EQ(stats.Cost(CostModel::Ratio(5.0)), 3 * 5.0 + 10.0);
}

TEST(IoAccountantTest, StatsArithmetic) {
  IoStats a{5, 10, 2, 1}, b{1, 3, 1, 0};
  IoStats diff = a - b;
  EXPECT_EQ(diff.random_reads, 4u);
  EXPECT_EQ(diff.sequential_reads, 7u);
  EXPECT_EQ((diff + b), a);
  EXPECT_EQ(a.total_ops(), 18u);
}

TEST(IoAccountantTest, ResetClearsHead) {
  IoAccountant acct;
  acct.RecordRead(1, 0, true);
  acct.Reset();
  acct.RecordRead(1, 1, true);
  EXPECT_EQ(acct.stats().random_reads, 1u);
  EXPECT_EQ(acct.stats().sequential_reads, 0u);
}

// ---------------------------------------------------------------------
// Disk
// ---------------------------------------------------------------------

TEST(DiskTest, CreateWriteRead) {
  Disk disk;
  FileId f = disk.CreateFile("test");
  Page p;
  p.AddRecord("payload");
  TEMPO_ASSERT_OK_AND_ASSIGN(uint32_t page_no, disk.AppendPage(f, p));
  EXPECT_EQ(page_no, 0u);
  EXPECT_EQ(disk.FileSizePages(f), 1u);
  Page back;
  TEMPO_ASSERT_OK(disk.ReadPage(f, 0, &back));
  EXPECT_EQ(back.GetRecord(0), "payload");
}

TEST(DiskTest, ReadPastEofFails) {
  Disk disk;
  FileId f = disk.CreateFile("t");
  Page p;
  EXPECT_EQ(disk.ReadPage(f, 0, &p).code(), StatusCode::kOutOfRange);
}

TEST(DiskTest, UnknownFileFails) {
  Disk disk;
  Page p;
  EXPECT_EQ(disk.ReadPage(999, 0, &p).code(), StatusCode::kNotFound);
  EXPECT_EQ(disk.DeleteFile(999).code(), StatusCode::kNotFound);
}

TEST(DiskTest, OverwritePage) {
  Disk disk;
  FileId f = disk.CreateFile("t");
  Page p;
  p.AddRecord("v1");
  TEMPO_ASSERT_OK_AND_ASSIGN(uint32_t n, disk.AppendPage(f, p));
  Page q;
  q.AddRecord("v2");
  TEMPO_ASSERT_OK(disk.WritePage(f, n, q));
  Page back;
  TEMPO_ASSERT_OK(disk.ReadPage(f, n, &back));
  EXPECT_EQ(back.GetRecord(0), "v2");
}

TEST(DiskTest, DeleteFreesPages) {
  Disk disk;
  FileId f = disk.CreateFile("t");
  Page p;
  TEMPO_ASSERT_OK(disk.AppendPage(f, p).status());
  EXPECT_EQ(disk.TotalPages(), 1u);
  TEMPO_ASSERT_OK(disk.DeleteFile(f));
  EXPECT_EQ(disk.TotalPages(), 0u);
  EXPECT_FALSE(disk.Exists(f));
}

TEST(DiskTest, TruncateKeepsFile) {
  Disk disk;
  FileId f = disk.CreateFile("t");
  Page p;
  TEMPO_ASSERT_OK(disk.AppendPage(f, p).status());
  TEMPO_ASSERT_OK(disk.Truncate(f));
  EXPECT_TRUE(disk.Exists(f));
  EXPECT_EQ(disk.FileSizePages(f), 0u);
}

TEST(DiskTest, ChargedFlagControlsAccounting) {
  Disk disk;
  FileId f = disk.CreateFile("t");
  TEMPO_ASSERT_OK(disk.SetCharged(f, false));
  Page p;
  TEMPO_ASSERT_OK(disk.AppendPage(f, p).status());
  Page back;
  TEMPO_ASSERT_OK(disk.ReadPage(f, 0, &back));
  EXPECT_EQ(disk.accountant().stats().total_ops(), 0u);
}

// ---------------------------------------------------------------------
// Page pins
// ---------------------------------------------------------------------

Page PageWith(const std::string& record) {
  Page p;
  EXPECT_TRUE(p.AddRecord(record).has_value());
  return p;
}

TEST(PagePinTest, PinKeepsItsBytesAcrossWriteTruncateAndDelete) {
  Disk disk;
  FileId f = disk.CreateFile("t");
  TEMPO_ASSERT_OK(disk.AppendPage(f, PageWith("v1")).status());
  TEMPO_ASSERT_OK(disk.AppendPage(f, PageWith("w1")).status());

  // WritePage is copy-on-write: the held pin keeps the old bytes, a new
  // pin sees the new ones.
  TEMPO_ASSERT_OK_AND_ASSIGN(PagePin before_write, disk.PinPage(f, 0));
  TEMPO_ASSERT_OK(disk.WritePage(f, 0, PageWith("v2")));
  EXPECT_EQ(before_write->GetRecord(0), "v1");
  TEMPO_ASSERT_OK_AND_ASSIGN(PagePin after_write, disk.PinPage(f, 0));
  EXPECT_EQ(after_write->GetRecord(0), "v2");
  EXPECT_NE(before_write.get(), after_write.get());

  // Truncate drops the disk's references only.
  TEMPO_ASSERT_OK_AND_ASSIGN(PagePin before_truncate, disk.PinPage(f, 1));
  TEMPO_ASSERT_OK(disk.Truncate(f));
  EXPECT_EQ(disk.FileSizePages(f), 0u);
  EXPECT_EQ(before_truncate->GetRecord(0), "w1");
  EXPECT_EQ(after_write->GetRecord(0), "v2");

  // So does DeleteFile; under ASan a freed page would be reported here.
  TEMPO_ASSERT_OK(disk.AppendPage(f, PageWith("x1")).status());
  TEMPO_ASSERT_OK_AND_ASSIGN(PagePin before_delete, disk.PinPage(f, 0));
  TEMPO_ASSERT_OK(disk.DeleteFile(f));
  EXPECT_EQ(disk.TotalPages(), 0u);
  EXPECT_EQ(before_delete->GetRecord(0), "x1");
  EXPECT_EQ(before_write->GetRecord(0), "v1");
}

TEST(PagePinTest, ConcurrentWritesNeverChangeAHeldPin) {
  // One thread rewrites a page over and over while this one pins and
  // checks it: every pin must read one whole version. Under TSan an
  // in-place write would also be reported as a race.
  Disk disk;
  FileId f = disk.CreateFile("t");
  TEMPO_ASSERT_OK(
      disk.AppendPage(f, PageWith(std::string(1000, 'a'))).status());
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      const char c = static_cast<char>('b' + i % 20);
      EXPECT_TRUE(disk.WritePage(f, 0, PageWith(std::string(1000, c))).ok());
    }
    done = true;
  });
  int pins = 0;
  while (!done.load() || pins == 0) {
    auto pin = disk.PinPage(f, 0);
    if (!pin.ok()) {
      ADD_FAILURE() << pin.status().ToString();
      break;
    }
    const std::string_view rec = (*pin)->GetRecord(0);
    EXPECT_EQ(rec.size(), 1000u);
    EXPECT_EQ(std::count(rec.begin(), rec.end(), rec[0]), 1000);
    ++pins;
  }
  writer.join();
}

TEST(PagePinTest, PinChargesExactlyWhatReadCharges) {
  // One access sequence with sequential runs, backward jumps, a re-touch
  // and a switch between files, replayed through ReadPage and through
  // PinPage, on charged and on uncharged files.
  for (bool charged : {true, false}) {
    Disk disk;
    const FileId f = disk.CreateFile("f");
    const FileId g = disk.CreateFile("g");
    TEMPO_ASSERT_OK(disk.SetCharged(f, charged));
    TEMPO_ASSERT_OK(disk.SetCharged(g, charged));
    for (int i = 0; i < 6; ++i) {
      TEMPO_ASSERT_OK(disk.AppendPage(f, PageWith("f")).status());
      TEMPO_ASSERT_OK(disk.AppendPage(g, PageWith("g")).status());
    }
    const std::vector<std::pair<FileId, uint32_t>> accesses = {
        {f, 0}, {f, 1}, {f, 2}, {f, 5}, {f, 4}, {f, 4},
        {g, 0}, {g, 1}, {f, 5}, {g, 3}, {g, 2}, {f, 0}};
    disk.accountant().Reset();
    for (const auto& [file, page_no] : accesses) {
      Page copy;
      TEMPO_ASSERT_OK(disk.ReadPage(file, page_no, &copy));
    }
    const IoStats read = disk.accountant().stats();
    disk.accountant().Reset();
    for (const auto& [file, page_no] : accesses) {
      TEMPO_ASSERT_OK(disk.PinPage(file, page_no).status());
    }
    const IoStats pinned = disk.accountant().stats();
    EXPECT_TRUE(read == pinned)
        << "charged=" << charged << ": " << read.ToString() << " vs "
        << pinned.ToString();
    if (charged) {
      EXPECT_GT(pinned.random_reads, 0u);
      EXPECT_GT(pinned.sequential_reads, 0u);
      EXPECT_EQ(pinned.total_ops(), accesses.size());
    } else {
      EXPECT_EQ(pinned.total_ops(), 0u);
    }
  }
}

TEST(PagePinTest, FaultsAndPastEofFailPinPage) {
  Disk disk;
  FileId f = disk.CreateFile("t");
  TEMPO_ASSERT_OK(disk.AppendPage(f, PageWith("p0")).status());
  TEMPO_ASSERT_OK(disk.AppendPage(f, PageWith("p1")).status());
  EXPECT_EQ(disk.PinPage(f, 2).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.PinPage(999, 0).status().code(), StatusCode::kNotFound);

  disk.InjectFaultAfter(1);
  TEMPO_EXPECT_OK(disk.PinPage(f, 0).status());
  EXPECT_EQ(disk.PinPage(f, 1).status().code(), StatusCode::kInternal);
  Page copy;
  EXPECT_EQ(disk.ReadPage(f, 1, &copy).code(), StatusCode::kInternal);
  disk.ClearFault();
  TEMPO_ASSERT_OK_AND_ASSIGN(PagePin pin, disk.PinPage(f, 1));
  EXPECT_EQ(pin->GetRecord(0), "p1");
}

// ---------------------------------------------------------------------
// StoredRelation
// ---------------------------------------------------------------------

TEST(StoredRelationTest, AppendScanRoundTrip) {
  Disk disk;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) tuples.push_back(T(i, "n" + std::to_string(i), i, i + 1));
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "r");
  EXPECT_EQ(rel->num_tuples(), 100u);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> back, rel->ReadAll());
  EXPECT_EQ(back, tuples);
}

TEST(StoredRelationTest, MultiPagePagination) {
  Disk disk;
  // ~40-byte records: well over one page of them.
  std::vector<Tuple> tuples;
  for (int i = 0; i < 1000; ++i) tuples.push_back(T(i, "padpadpad", 0, 1));
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "r");
  EXPECT_GT(rel->num_pages(), 1u);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> back, rel->ReadAll());
  EXPECT_EQ(back.size(), tuples.size());
}

TEST(StoredRelationTest, DirectoryLocatesTuples) {
  Disk disk;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 500; ++i) tuples.push_back(T(i, "some-name", 0, 1));
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "r");
  // Every tuple is found at its ordinal via random access.
  for (uint64_t idx : {uint64_t{0}, uint64_t{1}, uint64_t{250}, uint64_t{499}}) {
    TEMPO_ASSERT_OK_AND_ASSIGN(Interval iv, rel->ReadIntervalRandom(idx));
    EXPECT_EQ(iv, tuples[idx].interval());
  }
  // Directory is consistent.
  uint64_t total = 0;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) total += rel->TuplesOnPage(p);
  EXPECT_EQ(total, 500u);
}

TEST(StoredRelationTest, RandomReadChargesOneRead) {
  Disk disk;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 500; ++i) tuples.push_back(T(i, "some-name", 0, 1));
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "r");
  disk.accountant().Reset();
  TEMPO_ASSERT_OK(rel->ReadIntervalRandom(400).status());
  EXPECT_EQ(disk.accountant().stats().total_ops(), 1u);
  EXPECT_EQ(disk.accountant().stats().random_reads, 1u);
}

TEST(StoredRelationTest, SequentialScanCostsOneRandomRestSequential) {
  Disk disk;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 2000; ++i) tuples.push_back(T(i, "some-name", 0, 1));
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "r");
  disk.accountant().Reset();
  TEMPO_ASSERT_OK(rel->ReadAll().status());
  const IoStats& s = disk.accountant().stats();
  EXPECT_EQ(s.random_reads, 1u);
  EXPECT_EQ(s.sequential_reads, rel->num_pages() - 1);
}

TEST(StoredRelationTest, ReadIntervalRandomOutOfRange) {
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 1)}, "r");
  EXPECT_EQ(rel->ReadIntervalRandom(5).status().code(),
            StatusCode::kOutOfRange);
}

TEST(StoredRelationTest, FailedFlushKeepsRecordsBufferedForRetry) {
  Disk disk;
  StoredRelation rel(&disk, TestSchema(), "r");
  const std::vector<Tuple> tuples = {T(1, "a", 0, 1), T(2, "b", 3, 4)};
  for (const Tuple& t : tuples) TEMPO_ASSERT_OK(rel.Append(t));

  disk.InjectFaultAfter(0);
  EXPECT_EQ(rel.Flush().code(), StatusCode::kInternal);
  EXPECT_TRUE(rel.HasUnflushedAppends());
  EXPECT_EQ(rel.num_pages(), 0u);
  EXPECT_EQ(rel.num_tuples(), 2u);

  disk.ClearFault();
  TEMPO_ASSERT_OK(rel.Flush());
  EXPECT_FALSE(rel.HasUnflushedAppends());
  ASSERT_EQ(rel.num_pages(), 1u);
  EXPECT_EQ(rel.TuplesOnPage(0), 2u);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> back, rel.ReadAll());
  EXPECT_EQ(back, tuples);
}

TEST(StoredRelationTest, FailedImplicitFlushKeepsTheFullPageBuffered) {
  // An Append that finds the buffer full flushes it first; when that
  // flush fails, the Append fails, nothing is lost, and a retry after the
  // fault clears writes every record once, in order.
  Disk disk;
  StoredRelation rel(&disk, TestSchema(), "r");
  std::vector<Tuple> tuples;
  disk.InjectFaultAfter(0);
  Status st;
  for (int i = 0; st.ok(); ++i) {
    Tuple t = T(i, "padding-padding", i, i + 1);
    st = rel.Append(t);
    if (st.ok()) tuples.push_back(std::move(t));
  }
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(rel.num_pages(), 0u);
  EXPECT_EQ(rel.num_tuples(), tuples.size());

  disk.ClearFault();
  const Tuple last = T(-1, "padding-padding", 0, 1);
  TEMPO_ASSERT_OK(rel.Append(last));
  tuples.push_back(last);
  TEMPO_ASSERT_OK(rel.Flush());
  ASSERT_EQ(rel.num_pages(), 2u);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> back, rel.ReadAll());
  EXPECT_EQ(back, tuples);
}

TEST(StoredRelationTest, UnflushedAppendsVisibleInCount) {
  Disk disk;
  StoredRelation rel(&disk, TestSchema(), "r");
  TEMPO_ASSERT_OK(rel.Append(T(1, "a", 0, 1)));
  EXPECT_TRUE(rel.HasUnflushedAppends());
  EXPECT_EQ(rel.num_tuples(), 1u);
  EXPECT_EQ(rel.num_pages(), 0u);
  TEMPO_ASSERT_OK(rel.Flush());
  EXPECT_FALSE(rel.HasUnflushedAppends());
  EXPECT_EQ(rel.num_pages(), 1u);
}

TEST(StoredRelationTest, ClearResets) {
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 1)}, "r");
  TEMPO_ASSERT_OK(rel->Clear());
  EXPECT_EQ(rel->num_tuples(), 0u);
  EXPECT_EQ(rel->num_pages(), 0u);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> back, rel->ReadAll());
  EXPECT_TRUE(back.empty());
}

TEST(StoredRelationTest, OversizeTupleRejected) {
  Disk disk;
  StoredRelation rel(&disk, TestSchema(), "r");
  Tuple big({Value(int64_t{1}), Value(std::string(kPageSize, 'x'))},
            Interval(0, 1));
  EXPECT_EQ(rel.Append(big).code(), StatusCode::kInvalidArgument);
}

TEST(StoredRelationTest, ReusedViewArenaMatchesPerPageViews) {
  // Mixed layout exercising the null bitmap and variable-width payloads:
  // int64, nullable string, nullable double.
  Schema schema({{"k", ValueType::kInt64},
                 {"s", ValueType::kString},
                 {"d", ValueType::kDouble}});
  Disk disk;
  StoredRelation rel(&disk, schema, "mixed");
  std::vector<Tuple> written;
  for (int i = 0; i < 600; ++i) {
    std::vector<Value> vals;
    vals.emplace_back(static_cast<int64_t>(i));
    if (i % 3 == 0) {
      vals.push_back(Value::Null());
    } else {
      vals.emplace_back("name-" + std::string(i % 7, 'x') + std::to_string(i));
    }
    if (i % 5 == 0) {
      vals.push_back(Value::Null());
    } else {
      vals.emplace_back(i * 0.25);
    }
    written.push_back(Tuple(std::move(vals), Interval(i, i + 2)));
    TEMPO_ASSERT_OK(rel.Append(written.back()));
  }
  TEMPO_ASSERT_OK(rel.Flush());
  ASSERT_GT(rel.num_pages(), 2u) << "test must span multiple pages";

  // One view arena filled across every page, versus a fresh arena per
  // page: the views must read the same records, the shared arena must
  // report exactly the per-page record counts, and every view must
  // materialize the tuple written.
  PageTupleArena arena;
  std::vector<Tuple> per_page_all;
  for (uint32_t p = 0; p < rel.num_pages(); ++p) {
    TEMPO_ASSERT_OK_AND_ASSIGN(PagePin pin, rel.PinPage(p));
    const size_t before = arena.views().size();
    TEMPO_ASSERT_OK_AND_ASSIGN(size_t appended, arena.AddPage(schema, pin));
    PageTupleArena fresh;
    TEMPO_ASSERT_OK_AND_ASSIGN(size_t on_page, fresh.AddPage(schema, pin));
    EXPECT_EQ(appended, on_page);
    EXPECT_EQ(arena.views().size() - before, on_page);
    EXPECT_EQ(on_page, rel.TuplesOnPage(p));
    for (size_t i = 0; i < on_page; ++i) {
      EXPECT_EQ(arena.views()[before + i].record(), fresh.views()[i].record());
      per_page_all.push_back(fresh.views()[i].Materialize());
    }
  }
  EXPECT_EQ(arena.num_pages(), rel.num_pages());
  EXPECT_EQ(per_page_all, written);
}

}  // namespace
}  // namespace tempo
