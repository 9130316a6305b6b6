#ifndef TEMPO_TESTS_TEST_UTIL_H_
#define TEMPO_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "join/join_common.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "relation/tuple_view.h"
#include "storage/disk.h"
#include "storage/stored_relation.h"
#include "temporal/interval.h"

namespace tempo::testing {

/// Fails the current test if `status_expr` is not OK.
#define TEMPO_ASSERT_OK(status_expr)                            \
  do {                                                          \
    const ::tempo::Status _st = (status_expr);                  \
    ASSERT_TRUE(_st.ok()) << "status: " << _st.ToString();      \
  } while (false)

#define TEMPO_EXPECT_OK(status_expr)                            \
  do {                                                          \
    const ::tempo::Status _st = (status_expr);                  \
    EXPECT_TRUE(_st.ok()) << "status: " << _st.ToString();      \
  } while (false)

/// Unwraps a StatusOr in a test, asserting OK.
#define TEMPO_ASSERT_OK_AND_ASSIGN(lhs, expr)                   \
  TEMPO_ASSERT_OK_AND_ASSIGN_IMPL_(                             \
      TEMPO_TEST_CONCAT_(_test_statusor, __LINE__), lhs, expr)
#define TEMPO_ASSERT_OK_AND_ASSIGN_IMPL_(var, lhs, expr)        \
  auto var = (expr);                                            \
  ASSERT_TRUE(var.ok()) << "status: " << var.status().ToString(); \
  lhs = std::move(var).value()
#define TEMPO_TEST_CONCAT_(a, b) TEMPO_TEST_CONCAT_IMPL_(a, b)
#define TEMPO_TEST_CONCAT_IMPL_(a, b) a##b

/// Simple two-attribute test schema: key:int64, name:string.
inline Schema TestSchema() {
  return Schema({{"key", ValueType::kInt64}, {"name", ValueType::kString}});
}

/// Builds a test tuple of TestSchema().
inline Tuple T(int64_t key, const std::string& name, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(name)}, Interval(vs, ve));
}

/// Creates a flushed StoredRelation holding `tuples`.
inline std::unique_ptr<StoredRelation> MakeRelation(
    Disk* disk, const Schema& schema, const std::vector<Tuple>& tuples,
    const std::string& name) {
  auto rel = std::make_unique<StoredRelation>(disk, schema, name);
  for (const auto& t : tuples) {
    auto st = rel->Append(t);
    if (!st.ok()) ADD_FAILURE() << st.ToString();
  }
  auto st = rel->Flush();
  if (!st.ok()) ADD_FAILURE() << st.ToString();
  return rel;
}

/// Generates `n` random tuples of TestSchema(): keys in [0, key_space),
/// intervals within [0, lifespan), each long-lived with probability
/// `long_lived_prob` (duration up to lifespan/2), otherwise 1..3 chronons.
inline std::vector<Tuple> RandomTuples(Random& rng, size_t n,
                                       int64_t key_space, Chronon lifespan,
                                       double long_lived_prob) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(key_space));
    Chronon start = rng.UniformRange(0, lifespan - 1);
    int64_t dur;
    if (rng.Bernoulli(long_lived_prob)) {
      dur = rng.UniformRange(lifespan / 4, lifespan / 2);
    } else {
      dur = rng.UniformRange(0, 2);
    }
    Chronon end = std::min<Chronon>(start + dur, lifespan * 2);
    out.push_back(T(key, "t" + std::to_string(i), start, end));
  }
  return out;
}

/// Parses one record with TupleView::Make, the record parser, and
/// materializes it: the owning Tuple the stored record reads back as.
inline StatusOr<Tuple> ParseRecord(const Schema& schema,
                                   std::string_view record) {
  auto view = TupleView::Make(schema.layout(), record.data(), record.size());
  if (!view.ok()) return view.status();
  return view->Materialize();
}

/// FNV-1a over `bytes`, continuing from `h`.
inline uint64_t Fnv1a(std::string_view bytes,
                      uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

/// FNV-1a over every page of `rel` (the whole page image, slot directory
/// and free space included) in page order: equal digests mean
/// byte-identical files.
inline uint64_t PageDigest(StoredRelation* rel) {
  uint64_t h = Fnv1a({});
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    Page page;
    EXPECT_TRUE(rel->ReadPage(p, &page).ok());
    h = Fnv1a({reinterpret_cast<const char*>(&page), sizeof(Page)}, h);
  }
  return h;
}

/// Copies the records of `rel`, in sorted byte order, into a fresh
/// relation on a scratch disk and returns the copy's PageDigest. Join
/// results are a multiset, so two outputs holding the same records in
/// different orders digest alike, and the copy's pages are those of a
/// writer that sorted its results before appending them.
inline uint64_t SortedPageDigest(StoredRelation* rel) {
  std::vector<std::string> records;
  records.reserve(rel->num_tuples());
  const Status read = rel->ForEachView([&](const TupleView& v) {
    records.emplace_back(v.record());
    return Status::OK();
  });
  EXPECT_TRUE(read.ok()) << read.ToString();
  std::sort(records.begin(), records.end());
  Disk disk;
  StoredRelation copy(&disk, rel->schema(), rel->name() + ".sorted");
  for (const std::string& record : records) {
    const Status st = copy.AppendRecord(record);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_TRUE(copy.Flush().ok());
  return PageDigest(&copy);
}

/// What one join run left behind, for comparing two runs: its results as
/// a multiset (SortedPageDigest), its output pages as written
/// (PageDigest), its charged I/O and its result count.
struct RunImage {
  uint64_t sorted_digest = 0;
  uint64_t digest = 0;
  IoStats io;
  uint64_t output_tuples = 0;
};

inline RunImage ImageOf(StoredRelation* out, const JoinRunStats& stats) {
  RunImage image;
  image.sorted_digest = SortedPageDigest(out);
  image.digest = PageDigest(out);
  image.io = stats.io;
  image.output_tuples = stats.output_tuples;
  return image;
}

/// Expects `b` to hold the same results as `a`, in any order.
inline void ExpectSameResults(const RunImage& a, const RunImage& b,
                              const std::string& what) {
  EXPECT_EQ(a.output_tuples, b.output_tuples) << what;
  EXPECT_EQ(a.sorted_digest, b.sorted_digest) << what << ": results differ";
}

/// Expects `b` to repeat run `a` exactly: the same results written to the
/// same pages in the same order, at the same charged I/O.
inline void ExpectSameRun(const RunImage& a, const RunImage& b,
                          const std::string& what) {
  ExpectSameResults(a, b, what);
  EXPECT_EQ(a.digest, b.digest) << what << ": output pages differ";
  EXPECT_TRUE(a.io == b.io) << what << ": " << a.io.ToString() << " vs "
                            << b.io.ToString();
}

}  // namespace tempo::testing

#endif  // TEMPO_TESTS_TEST_UTIL_H_
