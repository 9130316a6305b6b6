// Tests for the concurrent query service: strict-FIFO admission control
// on the shared buffer pool, queued-query cancellation, the JoinRequest
// facade, and the headline guarantee that a query's output pages and
// charged IoStats are byte-identical to a standalone run at any
// concurrency level.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "join/reference_join.h"
#include "obs/export.h"
#include "service/query_service.h"
#include "test_util.h"
#include "workload/generator.h"

namespace tempo {
namespace {

using ::tempo::testing::ExpectSameRun;
using ::tempo::testing::ImageOf;
using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::RunImage;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"sval", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& v, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(v)}, Interval(vs, ve));
}

// ---------------------------------------------------------------------
// SharedBufferPool admission
// ---------------------------------------------------------------------

TEST(SharedBufferPoolTest, OverCapacityRequestFailsFastNotDeadlocks) {
  SharedBufferPool pool(8);
  auto ticket = pool.Request(9);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kResourceExhausted)
      << ticket.status().ToString();
  // The impossible request must not occupy the queue.
  EXPECT_EQ(pool.queue_depth(), 0u);
  // The pool still works afterwards.
  TEMPO_ASSERT_OK_AND_ASSIGN(auto ok_ticket, pool.Request(8));
  EXPECT_TRUE(ok_ticket->granted());
}

TEST(SharedBufferPoolTest, ZeroPageRequestIsInvalid) {
  SharedBufferPool pool(8);
  auto ticket = pool.Request(0);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kInvalidArgument);
}

TEST(SharedBufferPoolTest, StrictFifoFrontBlocksSmallerLaterRequests) {
  SharedBufferPool pool(10);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto a, pool.Request(6));
  EXPECT_TRUE(a->granted());  // 4 pages left
  TEMPO_ASSERT_OK_AND_ASSIGN(auto b, pool.Request(6));
  EXPECT_FALSE(b->granted());  // does not fit
  TEMPO_ASSERT_OK_AND_ASSIGN(auto c, pool.Request(2));
  // c would fit the 4 free pages, but strict FIFO means the blocked front
  // (b) holds it back — that is the no-starvation guarantee.
  EXPECT_FALSE(c->granted());
  EXPECT_EQ(pool.queue_depth(), 2u);

  a->Release();
  // b (6 pages) grants, then c (2 pages) fits the remaining 4 too.
  EXPECT_TRUE(b->granted());
  EXPECT_TRUE(c->granted());
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.available_pages(), 2u);
}

TEST(SharedBufferPoolTest, FifoFairnessUnderEightQueuedRequests) {
  SharedBufferPool pool(4);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto holder, pool.Request(4));
  EXPECT_TRUE(holder->granted());

  std::vector<std::unique_ptr<AdmissionTicket>> queued;
  for (int i = 0; i < 8; ++i) {
    TEMPO_ASSERT_OK_AND_ASSIGN(auto t, pool.Request(4));
    EXPECT_FALSE(t->granted());
    queued.push_back(std::move(t));
  }
  EXPECT_EQ(pool.queue_depth(), 8u);
  EXPECT_EQ(pool.queue_peak(), 8u);

  // Releasing the holder admits exactly the oldest waiter, and so on down
  // the queue in submission order.
  holder->Release();
  for (size_t i = 0; i < queued.size(); ++i) {
    EXPECT_TRUE(queued[i]->granted()) << "ticket " << i;
    for (size_t j = i + 1; j < queued.size(); ++j) {
      EXPECT_FALSE(queued[j]->granted())
          << "ticket " << j << " admitted out of order";
    }
    queued[i]->Release();
  }
  EXPECT_EQ(pool.available_pages(), 4u);
}

TEST(SharedBufferPoolTest, CancellingQueuedTicketUnblocksThoseBehindIt) {
  SharedBufferPool pool(4);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto holder, pool.Request(4));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto b, pool.Request(4));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto c, pool.Request(2));
  EXPECT_EQ(pool.queue_depth(), 2u);

  // Cancelling the queued front re-evaluates the queue...
  b->Cancel();
  EXPECT_EQ(pool.queue_depth(), 1u);
  EXPECT_FALSE(c->granted());  // ...but nothing is free yet.
  EXPECT_EQ(b->Wait().code(), StatusCode::kCancelled);

  holder->Release();
  EXPECT_TRUE(c->granted());
  TEMPO_ASSERT_OK(c->Wait());
}

// ---------------------------------------------------------------------
// JoinRequest facade
// ---------------------------------------------------------------------

struct FacadeInputs {
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
  std::vector<Tuple> expected;
};

FacadeInputs MakeFacadeInputs() {
  FacadeInputs in;
  Random rng(17);
  in.r_tuples = RandomTuples(rng, 300, 25, 500, 0.25);
  for (const Tuple& t : RandomTuples(rng, 260, 25, 500, 0.25)) {
    in.s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                            t.interval().start(), t.interval().end()));
  }
  auto expected =
      ReferenceJoin(TestSchema(), in.r_tuples, SSchema(), in.s_tuples);
  if (expected.ok()) in.expected = *std::move(expected);
  return in;
}

TEST(JoinRequestTest, EveryExecutorMatchesTheReference) {
  FacadeInputs in = MakeFacadeInputs();
  ASSERT_FALSE(in.expected.empty());
  for (JoinExecutor executor :
       {JoinExecutor::kAuto, JoinExecutor::kNestedLoop,
        JoinExecutor::kSortMerge, JoinExecutor::kIndexed,
        JoinExecutor::kPartition, JoinExecutor::kReference,
        JoinExecutor::kInMemoryRadix}) {
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(
        NaturalJoinLayout layout,
        DeriveNaturalJoinLayout(TestSchema(), SSchema()));
    StoredRelation out(&disk, layout.output, "out");
    JoinRequest request;
    request.From(r.get(), s.get()).Using(executor).BufferPages(8).On({"key"});
    if (executor == JoinExecutor::kInMemoryRadix) {
      request.RadixBudgetBytes(uint64_t{1} << 20);  // inputs must fit
    }
    auto stats = RunJoin(request, &out);
    ASSERT_TRUE(stats.ok()) << JoinExecutorName(executor) << ": "
                            << stats.status().ToString();
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
    EXPECT_TRUE(SameTupleMultiset(actual, in.expected))
        << JoinExecutorName(executor) << " actual=" << actual.size()
        << " expected=" << in.expected.size();
    EXPECT_EQ(stats->output_tuples, in.expected.size())
        << JoinExecutorName(executor);
  }
}

TEST(JoinRequestTest, RejectsMalformedRequests) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 5)}, "r");
  auto s = MakeRelation(&disk, SSchema(), {S(1, "b", 0, 5)}, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");

  JoinRequest no_inputs;
  EXPECT_EQ(RunJoin(no_inputs, &out).status().code(),
            StatusCode::kInvalidArgument);

  JoinRequest wrong_attrs;
  wrong_attrs.From(r.get(), s.get()).On({"key", "missing"});
  auto st = RunJoin(wrong_attrs, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.status().message().find("missing"), std::string::npos);

  JoinRequest self_output;
  self_output.From(r.get(), s.get());
  EXPECT_EQ(RunJoin(self_output, r.get()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JoinRequestTest, EachExecutorEnforcesItsMinimumBufferPages) {
  struct MinBuffer {
    JoinExecutor executor;
    uint32_t pages;
  };
  FacadeInputs in = MakeFacadeInputs();
  ASSERT_FALSE(in.expected.empty());
  for (const MinBuffer& min : {MinBuffer{JoinExecutor::kNestedLoop, 3},
                               MinBuffer{JoinExecutor::kSortMerge, 4},
                               MinBuffer{JoinExecutor::kIndexed, 8},
                               MinBuffer{JoinExecutor::kPartition, 4},
                               MinBuffer{JoinExecutor::kSweep, 4}}) {
    const std::string name = JoinExecutorName(min.executor);
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(
        NaturalJoinLayout layout,
        DeriveNaturalJoinLayout(TestSchema(), SSchema()));
    StoredRelation out(&disk, layout.output, "out");
    JoinRequest request;
    request.From(r.get(), s.get())
        .Using(min.executor)
        .BufferPages(min.pages - 1);
    auto below = RunJoin(request, &out);
    ASSERT_FALSE(below.ok()) << name << " ran at " << min.pages - 1
                             << " buffer pages";
    EXPECT_EQ(below.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(below.status().message().find(name), std::string::npos)
        << below.status().ToString();

    auto at = RunJoin(request.BufferPages(min.pages), &out);
    ASSERT_TRUE(at.ok()) << name << ": " << at.status().ToString();
    EXPECT_EQ(at->output_tuples, in.expected.size()) << name;
  }
}

TEST(JoinRequestTest, PredicateMaskReachesTheContextRegistry) {
  // EXPLAIN ANALYZE, the slow-query log and the Prometheus output read the
  // context's registry, so a non-default predicate must be recorded there
  // by every executor, not only in the returned stats.
  FacadeInputs in = MakeFacadeInputs();
  const TemporalPredicate contains =
      TemporalPredicate::Exactly(AllenRelation::kContains);
  for (JoinExecutor executor :
       {JoinExecutor::kAuto, JoinExecutor::kNestedLoop,
        JoinExecutor::kSortMerge, JoinExecutor::kIndexed,
        JoinExecutor::kPartition, JoinExecutor::kReference,
        JoinExecutor::kInMemoryRadix, JoinExecutor::kSweep}) {
    const std::string name = JoinExecutorName(executor);
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), in.r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), in.s_tuples, "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(
        NaturalJoinLayout layout,
        DeriveNaturalJoinLayout(TestSchema(), SSchema()));
    StoredRelation out(&disk, layout.output, "out");
    JoinRequest request;
    request.From(r.get(), s.get())
        .Using(executor)
        .BufferPages(8)
        .RadixBudgetBytes(uint64_t{1} << 20)  // radix inputs must fit
        .Predicate(AllenRelation::kContains);
    ExecContext ctx;
    auto stats = RunJoin(request, &out, &ctx);
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
    EXPECT_EQ(stats->Get(Metric::kJoinPredicateMask),
              static_cast<double>(contains.mask()))
        << name;
    ASSERT_TRUE(ctx.metrics().Has(Metric::kJoinPredicateMask)) << name;
    EXPECT_EQ(ctx.metrics().Get(Metric::kJoinPredicateMask),
              static_cast<double>(contains.mask()))
        << name;
  }
}

// ---------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------

struct ServiceFixture {
  Disk disk;
  std::unique_ptr<StoredRelation> r;
  std::unique_ptr<StoredRelation> s;
  std::vector<Tuple> expected;

  ServiceFixture() {
    Random rng(23);
    std::vector<Tuple> r_tuples = RandomTuples(rng, 400, 30, 600, 0.25);
    std::vector<Tuple> s_tuples;
    for (const Tuple& t : RandomTuples(rng, 350, 30, 600, 0.25)) {
      s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                           t.interval().start(), t.interval().end()));
    }
    r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    auto expected_or =
        ReferenceJoin(TestSchema(), r_tuples, SSchema(), s_tuples);
    if (expected_or.ok()) expected = *std::move(expected_or);
  }
};

TEST(QueryServiceTest, SubmitFailsFastWhenReservationExceedsPool) {
  ServiceFixture f;
  QueryServiceOptions options;
  options.pool_pages = 8;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&f.disk, options));
  Session session = service->OpenSession();
  JoinRequest request;
  request.From(f.r.get(), f.s.get()).BufferPages(16);
  auto handle = session.Submit(request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kResourceExhausted)
      << handle.status().ToString();
  // The pool is not wedged: a feasible query still runs.
  JoinRequest ok_request;
  ok_request.From(f.r.get(), f.s.get()).BufferPages(8);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto ok_handle, session.Submit(ok_request));
  TEMPO_ASSERT_OK(ok_handle->Wait());
  EXPECT_EQ(ok_handle->stats().output_tuples, f.expected.size());
}

TEST(QueryServiceTest, CancellingQueuedQueryReleasesItsSlot) {
  ServiceFixture f;
  QueryServiceOptions options;
  options.pool_pages = 8;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&f.disk, options));
  Session session = service->OpenSession();

  // Occupy the whole pool so every submitted query is deterministically
  // stuck in the admission queue.
  TEMPO_ASSERT_OK_AND_ASSIGN(auto blocker, service->pool()->Request(8));
  ASSERT_TRUE(blocker->granted());

  JoinRequest request;
  request.From(f.r.get(), f.s.get()).BufferPages(8);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto victim, session.Submit(request));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto survivor, session.Submit(request));
  EXPECT_EQ(service->pool()->queue_depth(), 2u);

  victim->Cancel();
  EXPECT_EQ(victim->Wait().code(), StatusCode::kCancelled);
  EXPECT_EQ(service->pool()->queue_depth(), 1u);

  // The cancelled query's slot is gone from the queue; releasing the
  // blocker admits the survivor, which completes normally.
  blocker->Release();
  TEMPO_ASSERT_OK(survivor->Wait());
  EXPECT_EQ(survivor->stats().output_tuples, f.expected.size());

  MetricsRegistry metrics = service->SnapshotMetrics();
  EXPECT_EQ(metrics.Get(Metric::kQueriesCancelled), 1.0);
  EXPECT_EQ(metrics.Get(Metric::kQueriesCompleted), 1.0);
}

// A handle owns its output relation: once the handle is destroyed — after
// a successful run, after a run that failed under an injected storage
// fault, or after cancellation in the admission queue — the disk holds the
// inputs only.
TEST(QueryServiceTest, DestroyedHandlesLeaveNoOutputBehind) {
  ServiceFixture f;
  const uint64_t input_pages = f.disk.TotalPages();
  QueryServiceOptions options;
  options.pool_pages = 8;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&f.disk, options));
  Session session = service->OpenSession();
  JoinRequest request;
  request.From(f.r.get(), f.s.get()).BufferPages(8);
  {
    TEMPO_ASSERT_OK_AND_ASSIGN(auto finished, session.Submit(request));
    TEMPO_ASSERT_OK(finished->Wait());
    ASSERT_GT(finished->output()->num_pages(), 0u);
    EXPECT_EQ(f.disk.TotalPages(),
              input_pages + finished->output()->num_pages());
  }
  EXPECT_EQ(f.disk.TotalPages(), input_pages) << "finished handle";
  {
    f.disk.InjectFaultAfter(10);
    TEMPO_ASSERT_OK_AND_ASSIGN(auto failed, session.Submit(request));
    EXPECT_EQ(failed->Wait().code(), StatusCode::kInternal);
    f.disk.ClearFault();
  }
  EXPECT_EQ(f.disk.TotalPages(), input_pages) << "failed handle";
  {
    TEMPO_ASSERT_OK_AND_ASSIGN(auto blocker, service->pool()->Request(8));
    TEMPO_ASSERT_OK_AND_ASSIGN(auto queued, session.Submit(request));
    queued->Cancel();
    EXPECT_EQ(queued->Wait().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(f.disk.TotalPages(), input_pages) << "cancelled handle";
}

TEST(QueryServiceTest, EightQueuedQueriesAllCompleteFifo) {
  ServiceFixture f;
  QueryServiceOptions options;
  options.pool_pages = 8;  // exactly one query's reservation
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&f.disk, options));
  TEMPO_ASSERT_OK(service->Register(f.r.get()));
  TEMPO_ASSERT_OK(service->Register(f.s.get()));
  Session session = service->OpenSession();
  TEMPO_ASSERT_OK_AND_ASSIGN(StoredRelation * r, session.Relation("r"));
  TEMPO_ASSERT_OK_AND_ASSIGN(StoredRelation * s, session.Relation("s"));

  TEMPO_ASSERT_OK_AND_ASSIGN(auto blocker, service->pool()->Request(8));
  std::vector<std::unique_ptr<QueryHandle>> handles;
  for (int i = 0; i < 8; ++i) {
    JoinRequest request;
    request.From(r, s).BufferPages(8).Using(
        i % 2 == 0 ? JoinExecutor::kPartition : JoinExecutor::kSortMerge);
    TEMPO_ASSERT_OK_AND_ASSIGN(auto h, session.Submit(request));
    handles.push_back(std::move(h));
  }
  EXPECT_EQ(service->pool()->queue_depth(), 8u);
  blocker->Release();

  for (size_t i = 0; i < handles.size(); ++i) {
    TEMPO_ASSERT_OK(handles[i]->Wait());
    EXPECT_EQ(handles[i]->stats().output_tuples, f.expected.size())
        << "query " << i;
  }
  MetricsRegistry metrics = service->SnapshotMetrics();
  EXPECT_EQ(metrics.Get(Metric::kQueriesCompleted), 8.0);
  EXPECT_EQ(metrics.Get(Metric::kAdmissionQueuePeak), 8.0);
}

// A request whose shared attribute has mismatched types is rejected by
// Submit before it reserves pages, so it never waits in the admission
// queue even when the pool is fully held.
TEST(QueryServiceTest, MalformedSubmitFailsWithoutQueueing) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 5)}, "r");
  const Schema string_key(
      {{"key", ValueType::kString}, {"sval", ValueType::kString}});
  auto s = MakeRelation(
      &disk, string_key,
      {Tuple({Value(std::string("1")), Value(std::string("b"))},
             Interval(0, 5))},
      "s");
  QueryServiceOptions options;
  options.pool_pages = 8;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&disk, options));
  TEMPO_ASSERT_OK_AND_ASSIGN(auto blocker,
                             service->pool()->Request(options.pool_pages));
  ASSERT_TRUE(blocker->granted());

  Session session = service->OpenSession();
  JoinRequest request;
  request.From(r.get(), s.get()).BufferPages(8);
  auto handle = session.Submit(request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument)
      << handle.status().ToString();
  EXPECT_EQ(service->pool()->queue_depth(), 0u);
  EXPECT_EQ(service->SnapshotMetrics().Get(Metric::kAdmissionQueuePeak), 0.0);
}

// Each query runs on its own thread; the service itself starts none (the
// telemetry sampler is off here).
TEST(QueryServiceTest, CreateStartsNoWorkerThreads) {
  const auto thread_count = [] {
    size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  Disk disk;
  QueryServiceOptions options;
  ASSERT_FALSE(options.telemetry.enabled());
  const size_t before = thread_count();
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service, QueryService::Create(&disk, options));
  ASSERT_EQ(service->sampler(), nullptr);
  EXPECT_EQ(thread_count(), before);
}

// ---------------------------------------------------------------------
// Determinism: concurrent service runs must be byte-identical to a
// standalone run — same output pages, same charged IoStats — however many
// queries are in flight. This is the test the TSan job hammers.
// ---------------------------------------------------------------------

RunImage ImageOf(QueryHandle* handle) {
  return ImageOf(handle->output(), handle->stats());
}

TEST(QueryServiceTest, ConcurrentRunsByteIdenticalToSerialAtAnyThreadCount) {
  ServiceFixture f;
  const JoinExecutor executors[] = {JoinExecutor::kPartition,
                                    JoinExecutor::kSortMerge,
                                    JoinExecutor::kNestedLoop};

  // Reference images: one query at a time.
  std::vector<RunImage> reference;
  {
    QueryServiceOptions options;
    options.pool_pages = 64;
    TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                               QueryService::Create(&f.disk, options));
    Session session = service->OpenSession();
    for (JoinExecutor executor : executors) {
      JoinRequest request;
      request.From(f.r.get(), f.s.get()).Using(executor).BufferPages(8);
      TEMPO_ASSERT_OK_AND_ASSIGN(auto handle, session.Submit(request));
      TEMPO_ASSERT_OK(handle->Wait());
      reference.push_back(ImageOf(handle.get()));
      EXPECT_EQ(reference.back().output_tuples, f.expected.size());
    }
  }

  // Concurrent runs: all three executors in flight at once (the pool
  // admits them all).
  QueryServiceOptions options;
  options.pool_pages = 64;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&f.disk, options));
  Session session = service->OpenSession();
  std::vector<std::unique_ptr<QueryHandle>> handles;
  for (JoinExecutor executor : executors) {
    JoinRequest request;
    request.From(f.r.get(), f.s.get()).Using(executor).BufferPages(8);
    TEMPO_ASSERT_OK_AND_ASSIGN(auto handle, session.Submit(request));
    handles.push_back(std::move(handle));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    TEMPO_ASSERT_OK(handles[i]->Wait());
    RunImage image = ImageOf(handles[i].get());
    ExpectSameRun(reference[i], image,
                  std::string(JoinExecutorName(executors[i])) +
                      " concurrent");
  }
}

// An anti join emits r's own rows, so the service must create its output
// with r's schema; the result must match a direct RunJoin byte for byte.
TEST(QueryServiceTest, AntiJoinSubmitMatchesRunJoin) {
  ServiceFixture f;
  JoinRequest request;
  request.From(f.r.get(), f.s.get())
      .Using(JoinExecutor::kPartition)
      .Kind(JoinKind::kAnti)
      .BufferPages(8);

  StoredRelation direct_out(&f.disk, f.r->schema(), "anti.direct");
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats direct_stats,
                             RunJoin(request, &direct_out));
  ASSERT_GT(direct_stats.output_tuples, 0u);
  const RunImage direct = ImageOf(&direct_out, direct_stats);

  QueryServiceOptions options;
  options.pool_pages = 8;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&f.disk, options));
  Session session = service->OpenSession();
  TEMPO_ASSERT_OK_AND_ASSIGN(auto handle, session.Submit(request));
  TEMPO_ASSERT_OK(handle->Wait());
  EXPECT_TRUE(handle->output()->schema() == f.r->schema());
  ExpectSameRun(direct, ImageOf(handle.get()), "anti join");
}

// ---------------------------------------------------------------------
// Telemetry (DESIGN.md §4k)
// ---------------------------------------------------------------------

std::string ServiceTempPath(const std::string& name) {
  return ::testing::TempDir() + "tempo_service_" + std::to_string(::getpid()) +
         "_" + name;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Parses every line of a JSONL file; fails the test on a malformed line.
std::vector<Json> ReadJsonl(const std::string& path) {
  std::vector<Json> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = Json::Parse(line);
    if (!parsed.ok()) {
      ADD_FAILURE() << "malformed JSONL line: " << line;
      continue;
    }
    records.push_back(*std::move(parsed));
  }
  return records;
}

// The headline telemetry guarantee: turning *everything* on — sampler,
// slow-query log (threshold 0 logs every query), flight dump — leaves
// every query's output pages and charged IoStats byte-identical to a
// telemetry-off run. Telemetry only reads snapshots; nothing it does
// lands on the charged-I/O path.
TEST(QueryServiceTest, TelemetryOnLeavesOutputAndIoStatsByteIdentical) {
  ServiceFixture f;
  const JoinExecutor executors[] = {JoinExecutor::kPartition,
                                    JoinExecutor::kSortMerge,
                                    JoinExecutor::kNestedLoop};
  const std::string jsonl = ServiceTempPath("full.jsonl");
  const std::string flight = ServiceTempPath("full_flight.json");

  auto run_all = [&](bool telemetry) -> std::vector<RunImage> {
    QueryServiceOptions options;
    options.pool_pages = 64;
    if (telemetry) {
      options.telemetry.jsonl_path = jsonl;
      options.telemetry.sampler_period_ms = 1;
      options.telemetry.slow_query_log = true;
      options.telemetry.slow_query_ms = 0;  // log every query
      options.telemetry.flight_path = flight;
    }
    auto service_or = QueryService::Create(&f.disk, options);
    if (!service_or.ok()) {
      ADD_FAILURE() << service_or.status().ToString();
      return {};
    }
    auto service = *std::move(service_or);
    Session session = service->OpenSession();
    std::vector<std::unique_ptr<QueryHandle>> handles;
    for (JoinExecutor executor : executors) {
      JoinRequest request;
      request.From(f.r.get(), f.s.get()).Using(executor).BufferPages(8);
      auto handle = session.Submit(request);
      if (!handle.ok()) {
        ADD_FAILURE() << handle.status().ToString();
        return {};
      }
      handles.push_back(*std::move(handle));
    }
    std::vector<RunImage> images;
    for (auto& handle : handles) {
      auto st = handle->Wait();
      if (!st.ok()) ADD_FAILURE() << st.ToString();
      images.push_back(ImageOf(handle.get()));
    }
    if (telemetry) {
      EXPECT_EQ(service->slow_queries_logged(), handles.size());
    }
    return images;
  };

  std::vector<RunImage> off = run_all(/*telemetry=*/false);
  std::vector<RunImage> on = run_all(/*telemetry=*/true);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    ExpectSameRun(off[i], on[i],
                  std::string(JoinExecutorName(executors[i])) +
                      " telemetry on/off");
  }

  // The fully-enabled runs also produced a parseable JSONL stream and a
  // parseable shutdown flight dump.
  std::vector<Json> records = ReadJsonl(jsonl);
  ASSERT_FALSE(records.empty());
  size_t samples = 0;
  size_t slow = 0;
  for (const Json& record : records) {
    const std::string& type = record.Find("type")->AsString();
    if (type == "sample") ++samples;
    if (type == "slow_query") ++slow;
  }
  EXPECT_GE(samples, 1u);
  EXPECT_GE(slow, 3u);  // 3 queries, threshold 0
  auto flight_doc = Json::Parse(ReadWholeFile(flight));
  ASSERT_TRUE(flight_doc.ok()) << flight_doc.status().ToString();
  EXPECT_NE(flight_doc->Find("traceEvents"), nullptr);
  std::remove(jsonl.c_str());
  std::remove(flight.c_str());
}

// The acceptance criterion for the rejection path: a kResourceExhausted
// submit leaves a submit/reject event pair for that query in the flight
// dump, written at the moment of rejection.
TEST(QueryServiceTest, RejectedQueryLeavesSubmitRejectPairInFlightDump) {
  ServiceFixture f;
  const std::string flight = ServiceTempPath("reject_flight.json");
  std::remove(flight.c_str());
  QueryServiceOptions options;
  options.pool_pages = 8;
  options.telemetry.flight_path = flight;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&f.disk, options));
  Session session = service->OpenSession();
  JoinRequest request;
  request.From(f.r.get(), f.s.get()).BufferPages(16);  // > pool
  auto handle = session.Submit(request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kResourceExhausted);

  // The dump was written by the rejection itself, before shutdown.
  auto doc = Json::Parse(ReadWholeFile(flight));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  uint64_t rejected_query = 0;
  bool saw_reject = false;
  bool saw_submit = false;
  for (const Json& e : doc->Find("traceEvents")->elements()) {
    if (e.Find("name")->AsString() == "query rejected") {
      saw_reject = true;
      rejected_query =
          static_cast<uint64_t>(e.Find("args")->Find("query")->AsNumber());
      EXPECT_EQ(e.Find("args")->Find("arg")->AsNumber(), 16.0);
    }
  }
  ASSERT_TRUE(saw_reject);
  for (const Json& e : doc->Find("traceEvents")->elements()) {
    if (e.Find("name")->AsString() == "query submitted" &&
        static_cast<uint64_t>(e.Find("args")->Find("query")->AsNumber()) ==
            rejected_query) {
      saw_submit = true;
    }
  }
  EXPECT_TRUE(saw_submit)
      << "no submit event for rejected query " << rejected_query;
  std::remove(flight.c_str());
}

// Satellite (a): one TEMPO_TRACE_OUT setting used to make N concurrent
// queries clobber a single trace file; the service now derives a
// per-query "<base>.q<id>.json" path, so two concurrent queries produce
// two well-formed traces.
TEST(QueryServiceTest, ConcurrentQueriesWriteSeparatePerQueryTraces) {
  const std::string base = ServiceTempPath("trace.json");
  setenv("TEMPO_TRACE_OUT", base.c_str(), 1);
  ServiceFixture f;
  {
    QueryServiceOptions options;
    options.pool_pages = 64;
    TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                               QueryService::Create(&f.disk, options));
    Session session = service->OpenSession();
    JoinRequest request;
    request.From(f.r.get(), f.s.get()).BufferPages(8);
    TEMPO_ASSERT_OK_AND_ASSIGN(auto a, session.Submit(request));
    TEMPO_ASSERT_OK_AND_ASSIGN(auto b, session.Submit(request));
    TEMPO_ASSERT_OK(a->Wait());
    TEMPO_ASSERT_OK(b->Wait());
    EXPECT_NE(a->query_id(), b->query_id());

    for (const QueryHandle* handle : {a.get(), b.get()}) {
      const std::string path = PerQueryTracePath(base, handle->query_id());
      auto doc = Json::Parse(ReadWholeFile(path));
      ASSERT_TRUE(doc.ok())
          << path << ": " << doc.status().ToString();
      const Json* events = doc->Find("traceEvents");
      ASSERT_NE(events, nullptr) << path;
      EXPECT_FALSE(events->elements().empty()) << path;
      std::remove(path.c_str());
    }
    // The shared base path itself is never written.
    EXPECT_EQ(ReadWholeFile(base), "");
  }
  unsetenv("TEMPO_TRACE_OUT");
}

TEST(QueryServiceTest, ProgressTracksQueuedRunningAndFinishedStates) {
  ServiceFixture f;
  QueryServiceOptions options;
  options.pool_pages = 8;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&f.disk, options));
  Session session = service->OpenSession();

  TEMPO_ASSERT_OK_AND_ASSIGN(auto blocker, service->pool()->Request(8));
  JoinRequest request;
  request.From(f.r.get(), f.s.get()).BufferPages(8);
  TEMPO_ASSERT_OK_AND_ASSIGN(auto handle, session.Submit(request));

  // Deterministically queued behind the blocker.
  QueryProgress queued = handle->Progress();
  EXPECT_STREQ(queued.state, "queued");
  EXPECT_EQ(queued.queue_position, 1u);
  EXPECT_FALSE(queued.pages_held);
  EXPECT_EQ(queued.pages_reserved, 8u);

  // DumpStats sees the same query, and the gauges agree.
  Json stats = service->DumpStats();
  ASSERT_EQ(stats.Find("queries")->elements().size(), 1u);
  const Json& q = stats.Find("queries")->elements()[0];
  EXPECT_EQ(q.Find("state")->AsString(), "queued");
  EXPECT_EQ(q.Find("query_id")->AsNumber(),
            static_cast<double>(handle->query_id()));
  EXPECT_EQ(stats.Find("gauges")->Find("queries_queued")->AsNumber(), 1.0);
  EXPECT_EQ(stats.Find("gauges")->Find("pool_pages_available")->AsNumber(),
            0.0);
  ASSERT_NE(stats.Find("metrics"), nullptr);

  GaugeSnapshot gauges = service->SampleGauges();
  EXPECT_EQ(gauges.Get(Gauge::kPoolPagesTotal), 8.0);
  EXPECT_EQ(gauges.Get(Gauge::kQueriesQueued), 1.0);
  EXPECT_GE(gauges.Get(Gauge::kFlightEventsAppended), 1.0);

  blocker->Release();
  TEMPO_ASSERT_OK(handle->Wait());
  QueryProgress done = handle->Progress();
  EXPECT_STREQ(done.state, "finished");
  EXPECT_FALSE(done.pages_held);   // reservation returned
  EXPECT_EQ(done.queue_position, 0u);
  EXPECT_GT(done.io.total_ops(), 0u);  // charged I/O accumulated

  // The exposition renders and carries the service's gauge values.
  const std::string prom = service->RenderPrometheusText();
  EXPECT_NE(prom.find("# TYPE tempo_pool_pages_total gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("tempo_pool_pages_total 8\n"), std::string::npos);
  EXPECT_NE(prom.find("tempo_queries_completed 1\n"), std::string::npos);
}

TEST(QueryServiceTest, SlowQueryLogCapturesRequestAndExplain) {
  ServiceFixture f;
  const std::string jsonl = ServiceTempPath("slow.jsonl");
  std::remove(jsonl.c_str());
  QueryServiceOptions options;
  options.pool_pages = 64;
  options.telemetry.jsonl_path = jsonl;
  options.telemetry.sampler_period_ms = 1000;  // final sample only
  options.telemetry.slow_query_log = true;
  options.telemetry.slow_query_ms = 0;  // log every query
  {
    TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                               QueryService::Create(&f.disk, options));
    Session session = service->OpenSession();
    JoinRequest request;
    request.From(f.r.get(), f.s.get())
        .Using(JoinExecutor::kPartition)
        .BufferPages(8);
    TEMPO_ASSERT_OK_AND_ASSIGN(auto handle, session.Submit(request));
    TEMPO_ASSERT_OK(handle->Wait());
    EXPECT_EQ(service->slow_queries_logged(), 1u);
  }

  std::vector<Json> records = ReadJsonl(jsonl);
  const Json* slow = nullptr;
  size_t samples = 0;
  for (const Json& record : records) {
    const std::string& type = record.Find("type")->AsString();
    if (type == "slow_query") slow = &record;
    if (type == "sample") ++samples;
  }
  EXPECT_GE(samples, 1u);  // Stop() takes a final sample even on short runs
  ASSERT_NE(slow, nullptr);
  EXPECT_GE(slow->Find("latency_us")->AsNumber(), 0.0);
  const Json* req = slow->Find("request");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->Find("executor")->AsString(), "partition");
  EXPECT_EQ(req->Find("buffer_pages")->AsNumber(), 8.0);
  EXPECT_EQ(req->Find("r")->AsString(), "r");
  ASSERT_NE(slow->Find("io"), nullptr);
  ASSERT_NE(slow->Find("metrics"), nullptr);
  // The captured EXPLAIN ANALYZE tree names the executor's phases.
  ASSERT_NE(slow->Find("explain"), nullptr);
  EXPECT_NE(slow->Find("explain")->AsString().find("partition join"),
            std::string::npos)
      << slow->Find("explain")->AsString();
  std::remove(jsonl.c_str());
}

TEST(QueryServiceTest, RegisterRejectsDuplicatesAndLookupMisses) {
  ServiceFixture f;
  QueryServiceOptions options;
  TEMPO_ASSERT_OK_AND_ASSIGN(auto service,
                             QueryService::Create(&f.disk, options));
  TEMPO_ASSERT_OK(service->Register(f.r.get()));
  EXPECT_EQ(service->Register(f.r.get()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Lookup("nope").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tempo
