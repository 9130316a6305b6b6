// CSV interchange and relation persistence.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "relation/csv.h"
#include "storage/relation_io.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

TEST(CsvTest, RoundTripSimple) {
  std::vector<Tuple> tuples{T(1, "ada", 0, 120), T(2, "grace", 50, 300)};
  std::string csv = ToCsv(TestSchema(), tuples);
  EXPECT_NE(csv.find("key,name,__vs,__ve"), std::string::npos);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto back, FromCsv(TestSchema(), csv));
  EXPECT_EQ(back, tuples);
}

TEST(CsvTest, QuotingSurvivesCommasQuotesAndNewlines) {
  std::vector<Tuple> tuples{
      T(1, "a,b", 0, 1),
      T(2, "say \"hi\"", 2, 3),
      T(3, "line1\nline2", 4, 5),
  };
  std::string csv = ToCsv(TestSchema(), tuples);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto back, FromCsv(TestSchema(), csv));
  EXPECT_EQ(back, tuples);
}

TEST(CsvTest, NullRoundTrip) {
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  std::vector<Tuple> tuples{
      Tuple({Value(int64_t{1}), Value::Null()}, Interval(0, 1)),
      Tuple({Value::Null(), Value("NULL")}, Interval(2, 3)),  // quoted "NULL"
  };
  std::string csv = ToCsv(schema, tuples);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto back, FromCsv(schema, csv));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back[0].value(1).is_null());
  EXPECT_TRUE(back[1].value(0).is_null());
  EXPECT_EQ(back[1].value(1).AsString(), "NULL");  // literal string survives
}

TEST(CsvTest, DoubleRoundTrip) {
  Schema schema({{"x", ValueType::kDouble}});
  std::vector<Tuple> tuples{Tuple({Value(0.1)}, Interval(0, 1)),
                            Tuple({Value(-3.5e300)}, Interval(1, 2))};
  std::string csv = ToCsv(schema, tuples);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto back, FromCsv(schema, csv));
  EXPECT_EQ(back, tuples);
}

TEST(CsvTest, DoubleExactRoundTripHardCases) {
  Schema schema({{"x", ValueType::kDouble}});
  const std::vector<double> cases = {
      0.0,
      -0.0,  // sign must survive, not just numeric equality
      0.1,
      1.0 / 3.0,
      3.141592653589793,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      -3.5e300,
      123456789012345678.0,
      6.02214076e23,
      -1.0000000000000002,  // one ulp above -1
  };
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < cases.size(); ++i) {
    tuples.push_back(Tuple({Value(cases[i])},
                           Interval(static_cast<Chronon>(i),
                                    static_cast<Chronon>(i) + 1)));
  }
  tuples.push_back(Tuple({Value::Null()}, Interval(100, 101)));
  std::string csv = ToCsv(schema, tuples);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto back, FromCsv(schema, csv));
  ASSERT_EQ(back.size(), tuples.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_FALSE(back[i].value(0).is_null()) << "case " << i;
    double got = back[i].value(0).AsDouble();
    // Bit-exact comparison: catches -0.0 vs 0.0 and one-ulp drift that
    // a double== comparison would miss.
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &cases[i], sizeof(want_bits));
    std::memcpy(&got_bits, &got, sizeof(got_bits));
    EXPECT_EQ(got_bits, want_bits)
        << "case " << i << ": " << cases[i] << " came back as " << got;
  }
  EXPECT_TRUE(back.back().value(0).is_null());
}

TEST(CsvTest, HeaderMismatchRejected) {
  EXPECT_FALSE(FromCsv(TestSchema(), "wrong,name,__vs,__ve\n").ok());
  EXPECT_FALSE(FromCsv(TestSchema(), "key,name,__vs\n").ok());
  EXPECT_FALSE(FromCsv(TestSchema(), "key,name,__ve,__vs\n").ok());
}

TEST(CsvTest, MalformedRowsRejectedWithLineNumbers) {
  std::string header = "key,name,__vs,__ve\n";
  auto expect_bad = [&](const std::string& row, const char* what) {
    auto result = FromCsv(TestSchema(), header + row);
    EXPECT_FALSE(result.ok()) << what;
    EXPECT_NE(result.status().message().find("line 2"),
              std::string_view::npos)
        << result.status().ToString();
  };
  expect_bad("x,\"a\",0,1\n", "non-integer key");
  expect_bad("1,\"a\",zero,1\n", "non-integer vs");
  expect_bad("1,\"a\",5,1\n", "inverted interval");
  expect_bad("1,\"a\",0\n", "missing field");
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  EXPECT_FALSE(
      FromCsv(TestSchema(), "key,name,__vs,__ve\n1,\"oops,0,1\n").ok());
}

TEST(CsvTest, BlankLinesIgnored) {
  std::string csv = "key,name,__vs,__ve\n1,\"a\",0,1\n\n2,\"b\",2,3\n";
  TEMPO_ASSERT_OK_AND_ASSIGN(auto back, FromCsv(TestSchema(), csv));
  EXPECT_EQ(back.size(), 2u);
}

TEST(CsvTest, FileRoundTrip) {
  Random rng(1);
  std::vector<Tuple> tuples = RandomTuples(rng, 500, 20, 1000, 0.3);
  std::string path = ::testing::TempDir() + "/tempo_csv_test.csv";
  TEMPO_ASSERT_OK(ExportCsvFile(TestSchema(), tuples, path));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto back, ImportCsvFile(TestSchema(), path));
  EXPECT_EQ(back, tuples);
  std::remove(path.c_str());
}

TEST(CsvTest, ImportMissingFileFails) {
  EXPECT_EQ(ImportCsvFile(TestSchema(), "/nonexistent/nope.csv")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(RelationIoTest, SaveLoadRoundTrip) {
  Disk disk;
  Random rng(2);
  std::vector<Tuple> tuples = RandomTuples(rng, 2000, 50, 5000, 0.2);
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "r");
  std::string path = ::testing::TempDir() + "/tempo_rel_test.bin";
  TEMPO_ASSERT_OK(SaveRelation(rel.get(), path));

  Disk other;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto loaded, LoadRelation(&other, path, "r2"));
  EXPECT_EQ(loaded->schema(), rel->schema());
  EXPECT_EQ(loaded->num_tuples(), rel->num_tuples());
  TEMPO_ASSERT_OK_AND_ASSIGN(auto back, loaded->ReadAll());
  EXPECT_EQ(back, tuples);
  std::remove(path.c_str());
}

TEST(RelationIoTest, SaveRequiresFlush) {
  Disk disk;
  StoredRelation rel(&disk, TestSchema(), "r");
  TEMPO_ASSERT_OK(rel.Append(T(1, "a", 0, 1)));
  EXPECT_EQ(SaveRelation(&rel, "/tmp/never-written.bin").code(),
            StatusCode::kFailedPrecondition);
}

TEST(RelationIoTest, LoadRejectsCorruptImages) {
  // A one-tuple image, and one whose load flushes pages before the cut is
  // reached: a failed load must leave neither on the target disk.
  Disk disk;
  Random rng(5);
  auto small = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 1)}, "r");
  auto multi_page = MakeRelation(
      &disk, TestSchema(), RandomTuples(rng, 1900, 50, 1000, 0.1), "big");
  ASSERT_GT(multi_page->num_pages(), 10u);
  std::string path = ::testing::TempDir() + "/tempo_rel_corrupt.bin";
  for (StoredRelation* rel : {small.get(), multi_page.get()}) {
    TEMPO_ASSERT_OK(SaveRelation(rel, path));

    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string data;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      data.append(buf, got);
    }
    std::fclose(f);

    // Truncate the image at various points.
    Disk other;
    for (size_t cut : {size_t{0}, size_t{5}, data.size() / 2,
                       data.size() - 1}) {
      std::FILE* w = std::fopen(path.c_str(), "wb");
      ASSERT_NE(w, nullptr);
      std::fwrite(data.data(), 1, cut, w);
      std::fclose(w);
      auto result = LoadRelation(&other, path, "broken");
      EXPECT_FALSE(result.ok()) << rel->name() << " cut " << cut;
      EXPECT_EQ(other.TotalPages(), 0u) << rel->name() << " cut " << cut;
    }
    // Bad magic.
    {
      std::string bad = data;
      bad[0] = 'X';
      std::FILE* w = std::fopen(path.c_str(), "wb");
      std::fwrite(bad.data(), 1, bad.size(), w);
      std::fclose(w);
      EXPECT_FALSE(LoadRelation(&other, path, "broken").ok());
      EXPECT_EQ(other.TotalPages(), 0u) << rel->name();
    }
  }
  std::remove(path.c_str());
}

Schema MixedSchema() {
  return Schema({{"k", ValueType::kInt64},
                 {"s", ValueType::kString},
                 {"d", ValueType::kDouble}});
}

/// 700 records over several pages, with NULLs in every attribute, empty
/// and long strings, and -0.0 among the doubles.
std::vector<Tuple> MixedTuples() {
  std::vector<Tuple> out;
  for (int i = 0; i < 700; ++i) {
    Value k = i % 11 == 0 ? Value::Null() : Value(int64_t{i} - 350);
    Value s = i % 3 == 0 ? Value::Null()
                         : Value(std::string(i % 17, static_cast<char>('a' + i % 26)));
    Value d = i % 5 == 0   ? Value::Null()
              : i % 7 == 0 ? Value(-0.0)
                           : Value(i * 0.125);
    out.push_back(Tuple({k, s, d}, Interval(i, i + i % 9)));
  }
  return out;
}

std::string ReadFileBytes(const std::string& path) {
  std::string data;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return data;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, got);
  std::fclose(f);
  return data;
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
}

// The image's bytes were recorded before SaveRelation wrote stored records
// as they are: saving must keep producing the same file.
TEST(RelationIoTest, SaveImageMatchesGoldenDigest) {
  Disk disk;
  auto rel = MakeRelation(&disk, MixedSchema(), MixedTuples(), "mixed");
  ASSERT_GT(rel->num_pages(), 2u);
  std::string path = ::testing::TempDir() + "/tempo_rel_golden.bin";
  TEMPO_ASSERT_OK(SaveRelation(rel.get(), path));
  const std::string image = ReadFileBytes(path);
  EXPECT_EQ(image.size(), 29885u);
  EXPECT_EQ(::tempo::testing::Fnv1a(image), 5321546447593190425ull);
  std::remove(path.c_str());
}

/// Offset of record `index`'s length prefix in a relation image of
/// MixedSchema(): the header is the magic, the attribute list and the
/// tuple count.
size_t RecordOffset(const std::string& image, uint64_t index) {
  size_t pos = 10 + 4;  // magic, attribute count
  for (const char* name : {"k", "s", "d"}) pos += 1 + 4 + std::strlen(name);
  pos += 8;  // tuple count
  for (uint64_t i = 0; i < index; ++i) {
    uint32_t len;
    std::memcpy(&len, image.data() + pos, 4);
    pos += 4 + len;
  }
  return pos;
}

// One corrupt record, the last one, so that earlier pages of the loaded
// relation are already flushed when the parser meets it: the load fails
// with Corruption and deletes every file it made on the target disk.
TEST(RelationIoTest, LoadRejectsCorruptRecordsLeavingNoFile) {
  Disk disk;
  const std::vector<Tuple> tuples = MixedTuples();
  auto rel = MakeRelation(&disk, MixedSchema(), tuples, "mixed");
  std::string path = ::testing::TempDir() + "/tempo_rel_badrec.bin";
  TEMPO_ASSERT_OK(SaveRelation(rel.get(), path));
  const std::string image = ReadFileBytes(path);
  const size_t last = RecordOffset(image, tuples.size() - 1);
  uint32_t last_len;
  std::memcpy(&last_len, image.data() + last, 4);
  ASSERT_EQ(last + 4 + last_len, image.size());
  const size_t record = last + 4;

  std::string bad_padding = image;  // 3 attributes: bits 3..7 are padding
  bad_padding[record + RecordLayout::kBitmapOffset] |= char(0x80);
  std::string trailing_byte = image + 'x';
  const uint32_t longer = last_len + 1;
  std::memcpy(&trailing_byte[last], &longer, 4);
  std::string inverted = image;
  const int64_t vs = 99, ve = 1;
  std::memcpy(&inverted[record], &vs, 8);
  std::memcpy(&inverted[record + 8], &ve, 8);

  for (const std::string* bad : {&bad_padding, &trailing_byte, &inverted}) {
    WriteFileBytes(path, *bad);
    Disk other;
    EXPECT_EQ(LoadRelation(&other, path, "broken").status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(other.TotalPages(), 0u);
    const FileId probe = other.CreateFile("probe");
    for (FileId id = 0; id < probe; ++id) EXPECT_FALSE(other.Exists(id));
  }
  // The intact image still loads.
  WriteFileBytes(path, image);
  Disk other;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto loaded, LoadRelation(&other, path, "ok"));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto back, loaded->ReadAll());
  EXPECT_EQ(back, tuples);
  std::remove(path.c_str());
}

TEST(RelationIoTest, EmptyRelation) {
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(), {}, "empty");
  std::string path = ::testing::TempDir() + "/tempo_rel_empty.bin";
  TEMPO_ASSERT_OK(SaveRelation(rel.get(), path));
  Disk other;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto loaded, LoadRelation(&other, path, "e2"));
  EXPECT_EQ(loaded->num_tuples(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tempo
