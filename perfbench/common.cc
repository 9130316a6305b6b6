// Workload definitions, input generation, output digests, the untimed
// expected-value pass, clocks and the span log.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <string_view>

#include "common/json.h"
#include "perfbench.h"
#include "relation/schema.h"
#include "storage/page_arena.h"
#include "workload/generator.h"

namespace tempo::perfbench {

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> all;

    Workload paged;
    paged.name = "paged-paper";
    paged.tuples = 65536;
    paged.distinct_keys = 6553;
    paged.long_lived = 8000;
    paged.buffer_pages = 512;  // inputs are 4x memory
    paged.mix = {{"auto-inner", JoinExecutor::kAuto, JoinKind::kInner}};
    all.push_back(paged);

    Workload radix;
    radix.name = "inmem-radix";
    radix.tuples = 32768;
    radix.distinct_keys = 3276;
    radix.long_lived = 8192;
    radix.buffer_pages = 4096;  // the radix budget covers the footprint
    radix.mix = {{"auto-inner", JoinExecutor::kAuto, JoinKind::kInner}};
    all.push_back(radix);

    Workload service;
    service.name = "service-mix";
    service.tuples = 16384;
    service.distinct_keys = 1638;
    service.long_lived = 4096;
    service.buffer_pages = 16;
    service.mix = {
        {"auto-inner", JoinExecutor::kAuto, JoinKind::kInner},
        {"sweep-inner", JoinExecutor::kSweep, JoinKind::kInner},
        {"sort-merge-inner", JoinExecutor::kSortMerge, JoinKind::kInner},
        {"auto-left-outer", JoinExecutor::kAuto, JoinKind::kLeftOuter},
    };
    service.sessions = 3;
    service.pool_pages = 32;  // two reservations
    service.workers = 2;
    service.round_queries = 12;  // a multiple of the mix and the sessions
    all.push_back(service);
    return all;
  }();
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

StatusOr<Inputs> MakeInputs(const Workload& w, uint64_t seed,
                            uint64_t divisor) {
  Inputs in;
  in.disk = std::make_unique<Disk>();
  WorkloadSpec spec;
  spec.num_tuples = w.tuples / divisor;
  spec.num_long_lived = w.long_lived / divisor;
  spec.distinct_keys = std::max<uint64_t>(1, w.distinct_keys / divisor);
  spec.lifespan = 1000000;
  spec.tuple_bytes = 128;
  spec.seed = seed * 2 + 1;
  TEMPO_ASSIGN_OR_RETURN(in.r, GenerateRelation(in.disk.get(), spec, "r"));
  spec.seed = seed * 2 + 2;
  TEMPO_ASSIGN_OR_RETURN(std::unique_ptr<StoredRelation> s_gen,
                         GenerateRelation(in.disk.get(), spec, "s_gen"));
  // s renames the pad attribute so the join is on `key` alone. Records
  // carry no attribute names, so they are copied verbatim.
  Schema s_schema({{"key", ValueType::kInt64}, {"spad", ValueType::kString}});
  in.s = std::make_unique<StoredRelation>(in.disk.get(), s_schema, "s");
  for (uint32_t p = 0; p < s_gen->num_pages(); ++p) {
    Page page;
    TEMPO_RETURN_IF_ERROR(s_gen->ReadPage(p, &page));
    for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
      TEMPO_RETURN_IF_ERROR(in.s->AppendRecord(page.GetRecord(slot)));
    }
  }
  TEMPO_RETURN_IF_ERROR(in.s->Flush());
  TEMPO_RETURN_IF_ERROR(in.disk->DeleteFile(s_gen->file_id()));
  in.input_pages = in.disk->TotalPages();
  return in;
}

JoinRequest MakeRequest(const QueryClass& qc, const Inputs& in,
                        uint32_t buffer_pages) {
  JoinRequest req;
  req.From(in.r.get(), in.s.get())
      .Using(qc.executor)
      .Kind(qc.kind)
      .BufferPages(buffer_pages)
      .Model(CostModel::Ratio(5.0))
      .Seed(kQuerySeed);
  return req;
}

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

uint64_t RecordHash(std::string_view record) {
  return Mix64(std::hash<std::string_view>{}(record) ^ record.size());
}

}  // namespace

// Marks the relation uncharged first: reading it back for verification
// must never count as a query's I/O.
StatusOr<Digest> DigestOf(StoredRelation* rel) {
  TEMPO_RETURN_IF_ERROR(rel->SetCharged(false));
  Digest d;
  Page page;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    TEMPO_RETURN_IF_ERROR(rel->ReadPage(p, &page));
    for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
      d.sum += RecordHash(page.GetRecord(slot));
      ++d.rows;
    }
  }
  return d;
}

StatusOr<Digest> DigestOfMatched(StoredRelation* rel, size_t null_attr) {
  TEMPO_RETURN_IF_ERROR(rel->SetCharged(false));
  Digest d;
  Page page;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    TEMPO_RETURN_IF_ERROR(rel->ReadPage(p, &page));
    PageTupleArena arena;
    TEMPO_RETURN_IF_ERROR(arena.AddPage(rel->schema(), page).status());
    for (const TupleView& view : arena.views()) {
      if (view.is_null(null_attr)) continue;
      d.sum += RecordHash(view.record());
      ++d.rows;
    }
  }
  return d;
}

DirectRun RunDirect(const JoinRequest& req, Inputs* in, ExecContext* ctx) {
  DirectRun run;
  StatusOr<NaturalJoinLayout> layout =
      DeriveNaturalJoinLayout(req.r->schema(), req.s->schema());
  if (!layout.ok()) {
    run.status = layout.status();
    return run;
  }
  StoredRelation out(in->disk.get(), layout->output, "out");
  run.status = out.SetCharged(false);
  if (!run.status.ok()) return run;
  {
    IoAccountant acct;
    ScopedAccountantBinding bind(in->disk.get(), &acct);
    if (ctx != nullptr) ctx->BindAccountant(&acct);
    run.start_s = NowSeconds();
    StatusOr<JoinRunStats> stats = RunJoin(req, &out, ctx);
    run.seconds = NowSeconds() - run.start_s;
    // The context must not keep a pointer to this accountant.
    if (ctx != nullptr) ctx->BindAccountant(nullptr);
    if (stats.ok()) {
      run.stats = std::move(stats).value();
    } else {
      run.status = stats.status();
    }
  }
  if (run.status.ok()) {
    const double v0 = NowSeconds();
    StatusOr<Digest> digest = DigestOf(&out);
    run.verify_seconds = NowSeconds() - v0;
    if (digest.ok()) {
      run.digest = *digest;
    } else {
      run.status = digest.status();
    }
  }
  Status dropped = in->disk->DeleteFile(out.file_id());
  if (run.status.ok()) run.status = dropped;
  return run;
}

namespace {

/// One untimed check: `status` must be OK and `got` equal `want`.
void Check(const char* what, const Workload& w, const QueryClass& qc,
           const Status& status, const Digest& got, const Digest& want,
           uint64_t* checks, uint64_t* failures) {
  ++*checks;
  if (status.ok() && got == want) return;
  ++*failures;
  std::fprintf(stderr, "check failed: %s, workload %s, class %s: %s\n", what,
               w.name.c_str(), qc.label,
               status.ok() ? "digest mismatch" : status.ToString().c_str());
}

}  // namespace

StatusOr<Expected> ComputeExpected(const Workload& w, uint64_t seed,
                                   Inputs* full, uint64_t* checks,
                                   uint64_t* check_failures) {
  Inputs& in = *full;
  Expected e;
  e.resize(w.mix.size());

  // Inner result: two executors that share no probe loop must agree.
  const QueryClass partition{"partition", JoinExecutor::kPartition,
                             JoinKind::kInner};
  const QueryClass sweep{"sweep", JoinExecutor::kSweep, JoinKind::kInner};
  DirectRun by_partition =
      RunDirect(MakeRequest(partition, in, w.buffer_pages), &in, nullptr);
  TEMPO_RETURN_IF_ERROR(by_partition.status);
  DirectRun by_sweep =
      RunDirect(MakeRequest(sweep, in, w.buffer_pages), &in, nullptr);
  Check("sweep vs partition", w, sweep, by_sweep.status, by_sweep.digest,
        by_partition.digest, checks, check_failures);
  const Digest inner = by_partition.digest;

  for (size_t c = 0; c < w.mix.size(); ++c) {
    const QueryClass& qc = w.mix[c];
    if (qc.kind == JoinKind::kInner) {
      e[c] = inner;
      continue;
    }
    // Outer class: its own untimed run fixes the digest every timed run
    // must reproduce; its matched rows must be exactly the inner result.
    JoinRequest req = MakeRequest(qc, in, w.buffer_pages);
    TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                           DeriveNaturalJoinLayout(in.r->schema(),
                                                   in.s->schema()));
    StoredRelation out(in.disk.get(), layout.output, "outer-expected");
    TEMPO_RETURN_IF_ERROR(out.SetCharged(false));
    TEMPO_RETURN_IF_ERROR(RunJoin(req, &out).status());
    TEMPO_ASSIGN_OR_RETURN(e[c], DigestOf(&out));
    StatusOr<Digest> matched =
        DigestOfMatched(&out, *layout.output.IndexOf("spad"));
    Check("matched rows of outer vs inner", w, qc, matched.status(),
          matched.ok() ? *matched : Digest{}, inner, checks, check_failures);
    TEMPO_RETURN_IF_ERROR(in.disk->DeleteFile(out.file_id()));
  }

  // Every class against the reference oracle on a 1/16-size copy.
  constexpr uint64_t kDivisor = 16;
  TEMPO_ASSIGN_OR_RETURN(Inputs small, MakeInputs(w, seed, kDivisor));
  const uint32_t small_buffer =
      std::max<uint32_t>(8, w.buffer_pages / kDivisor);
  for (const QueryClass& qc : w.mix) {
    QueryClass ref = qc;
    ref.executor = JoinExecutor::kReference;
    DirectRun want =
        RunDirect(MakeRequest(ref, small, small_buffer), &small, nullptr);
    TEMPO_RETURN_IF_ERROR(want.status);
    DirectRun got =
        RunDirect(MakeRequest(qc, small, small_buffer), &small, nullptr);
    Check("1/16 copy vs reference", w, qc, got.status, got.digest, want.digest,
          checks, check_failures);
  }
  return e;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double QError(double estimate, double actual) {
  if (estimate <= 0.0 || actual <= 0.0) return 0.0;
  return std::max(estimate / actual, actual / estimate);
}

void MetricSet::Put(const std::string& name, double value,
                    const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

// --- SpanLog ----------------------------------------------------------------

int SpanLog::Begin(const std::string& name, const std::string& layer,
                   int parent, uint64_t query_id) {
  const double now_us = (NowSeconds() - origin_) * 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, layer, now_us, now_us, parent, query_id, false});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  const double now_us = (NowSeconds() - origin_) * 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_us = now_us;
}

int SpanLog::Add(const std::string& name, const std::string& layer,
                 int parent, uint64_t query_id, double start_us,
                 double dur_us) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      {name, layer, start_us, start_us + dur_us, parent, query_id, false});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::ToUs(double seconds) const {
  return (seconds - origin_) * 1e6;
}

void SpanLog::Import(const SpanNode& root, int parent, uint64_t query_id) {
  double start_us = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    start_us = spans_[parent].start_us;
  }
  ImportChildren(root, parent, query_id, start_us);
}

void SpanLog::ImportChildren(const SpanNode& node, int parent,
                             uint64_t query_id, double start_us) {
  double cursor = start_us;
  for (const auto& child : node.children) {
    const double dur_us = child->stats.wall_seconds * 1e6;
    int id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      spans_.push_back({PhaseName(child->phase), LayerOfPhase(child->phase),
                        cursor, cursor + dur_us, parent, query_id, true});
      id = static_cast<int>(spans_.size()) - 1;
    }
    ImportChildren(*child, id, query_id, cursor);
    cursor += dur_us;
  }
}

double SpanLog::DurationMs(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  return (spans_[id].end_us - spans_[id].start_us) / 1e3;
}

std::map<std::string, double> SpanLog::SelfMsByLayer(
    const std::vector<int>& roots) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, double> self;
  std::vector<int> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    const SpanRecord& span = spans_[id];
    const double dur = span.end_us - span.start_us;
    double covered = 0.0;
    for (int c : children[id]) {
      covered += spans_[c].end_us - spans_[c].start_us;
      stack.push_back(c);
    }
    // Concurrent children (the r-partitioning thread) can sum past the
    // parent; a span's self time is never negative.
    self[span.layer] += std::max(0.0, dur - covered) / 1e3;
  }
  return self;
}

Status SpanLog::WriteJson(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Json spans = Json::Array();
  for (const SpanRecord& span : spans_) {
    Json j = Json::Object();
    j.Set("name", span.name);
    j.Set("layer", span.layer);
    j.Set("start_us", span.start_us);
    j.Set("end_us", span.end_us);
    j.Set("parent", static_cast<double>(span.parent));
    j.Set("query_id", static_cast<double>(span.query_id));
    j.Set("imported", span.imported);
    spans.Append(std::move(j));
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  const std::string text = spans.Dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) return Status::Internal("cannot write " + path);
  return Status::OK();
}

const char* LayerOfPhase(Phase p) {
  switch (p) {
    case Phase::kPlan:
      return "core.planner";
    case Phase::kChooseIntervals:
      return "core.optimizer";
    case Phase::kSampling:
      return "sampling";
    case Phase::kPartitionR:
    case Phase::kPartitionS:
      return "core.grace";
    case Phase::kJoinPartitions:
      return "core.join_partitions";
    case Phase::kRadixJoin:
    case Phase::kRadixExtract:
    case Phase::kRadixPartition:
    case Phase::kRadixProbe:
      return "core.radix";
    case Phase::kSortR:
    case Phase::kSortS:
      return "join.sort";
    case Phase::kMergeSweep:
    case Phase::kSweepPass:
      return "join.merge";
    default:
      // Executor roots: their self time is the work outside any phase
      // (result writing, the canonical sort of outer results, ...).
      return "executor";
  }
}

}  // namespace tempo::perfbench
