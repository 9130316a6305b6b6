// The timed closed loops: one serial RunJoin client, or closed-loop
// sessions of a QueryService run in rounds.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "perfbench.h"
#include "service/query_service.h"

namespace tempo::perfbench {
namespace {

/// Hard stop for a loop that cannot reach its minimum query count, so a
/// pathologically slow build still exits well inside the run limit.
constexpr double kMaxLoopSeconds = 120.0;

/// A serial loop times one set-up every this many queries. Spreading the
/// set-ups over the run exposes them to the same host-speed drift as the
/// queries instead of to the few milliseconds before the loop.
constexpr uint64_t kQueriesPerSetup = 8;

bool LoopDone(const LoopOptions& opt, const LoopOutput& out, double elapsed) {
  if (elapsed >= kMaxLoopSeconds) return true;
  if (elapsed < opt.seconds) return false;
  const uint64_t need = static_cast<uint64_t>(opt.min_queries);
  if (out.untraced.attempted < need) return false;
  return !opt.traced || out.traced.attempted >= need;
}

/// Mean of v[from, end); 0 when that is empty.
double MeanFrom(const std::vector<double>& v, size_t from) {
  if (from >= v.size()) return 0.0;
  double sum = 0.0;
  for (size_t i = from; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - from);
}

Digest Want(const Expected& expected, size_t c, const LoopOptions& opt) {
  Digest want = expected[c];
  if (opt.corrupt_expected) want.sum += 1;
  return want;
}

/// Books one query. A query fails when it errs, is rejected, or its output
/// differs from the expected digest in cardinality or content.
void Account(LoopResult* res, const QueryClass& qc, const Status& status,
             const JoinRunStats& stats, const Digest& got, const Digest& want,
             double latency_s) {
  ++res->attempted;
  res->latency_ms.push_back(latency_s * 1e3);
  const bool ok = status.ok() && got == want && got.rows == stats.output_tuples;
  if (!ok) {
    if (res->failed == 0) {
      std::fprintf(stderr, "query of class %s failed: %s\n", qc.label,
                   status.ok() ? "output differs from the expected digest"
                               : status.ToString().c_str());
    }
    ++res->failed;
    return;
  }
  ++res->completed;
  res->io = res->io + stats.io;
  res->charged_cost += stats.io.Cost(CostModel::Ratio(5.0));
  res->morsels += stats.Get(Metric::kMorselsDispatched);
  res->parallel_efficiency += stats.Get(Metric::kParallelEfficiency);
}

Status RunSerialLoop(const Workload& w, uint64_t seed,
                     const Expected& expected, Inputs* in,
                     const LoopOptions& opt, LoopOutput* out) {
  // Warm-up: the mix runs unbooked until the process is up to speed.
  const double warmup_start = NowSeconds();
  for (size_t c = 0; NowSeconds() - warmup_start < opt.warmup_seconds; ++c) {
    const QueryClass& qc = w.mix[c % w.mix.size()];
    RunDirect(MakeRequest(qc, *in, w.buffer_pages), in, nullptr);
  }

  const double start = NowSeconds();
  const double cpu_start = ProcessCpuSeconds();
  double setup_wall = 0.0;
  double setup_cpu = 0.0;
  // The window of queries since the last set-up, booked when it is full.
  uint64_t window_n0 = 0;
  uint64_t window_completed0 = 0;
  size_t window_lat0 = 0;
  double window_t0 = 0.0;
  double window_cpu0 = 0.0;
  auto close_window = [&](uint64_t n) {
    if (opt.traced || n - window_n0 < kQueriesPerSetup) return;
    LoopResult& u = out->untraced;
    u.windows.push_back({u.completed - window_completed0,
                         NowSeconds() - window_t0,
                         ProcessCpuSeconds() - window_cpu0,
                         MeanFrom(u.latency_ms, window_lat0)});
  };
  uint64_t n = 0;
  for (; !LoopDone(opt, *out, NowSeconds() - start - setup_wall); ++n) {
    if (n % kQueriesPerSetup == 0) {
      close_window(n);
      const double t0 = NowSeconds();
      const double cpu0 = ProcessCpuSeconds();
      {
        StatusOr<Inputs> fresh = MakeInputs(w, seed);
        out->untraced.setup_s.push_back(NowSeconds() - t0);
        TEMPO_RETURN_IF_ERROR(fresh.status());
      }  // freeing the copy is not loop time either
      setup_wall += NowSeconds() - t0;
      setup_cpu += ProcessCpuSeconds() - cpu0;
      window_n0 = n;
      window_completed0 = out->untraced.completed;
      window_lat0 = out->untraced.latency_ms.size();
      window_t0 = NowSeconds();
      window_cpu0 = ProcessCpuSeconds();
    }
    // Traced runs alternate untraced and traced samples so drift hits both.
    const bool traced = opt.traced && n % 2 == 1;
    const size_t c = (opt.traced ? n / 2 : n) % w.mix.size();
    LoopResult& res = traced ? out->traced : out->untraced;
    std::unique_ptr<ExecContext> ctx;
    if (traced) ctx = std::make_unique<ExecContext>();
    DirectRun run =
        RunDirect(MakeRequest(w.mix[c], *in, w.buffer_pages), in, ctx.get());
    Account(&res, w.mix[c], run.status, run.stats, run.digest,
            Want(expected, c, opt), run.seconds);
    if (traced && opt.log != nullptr) {
      SpanLog* log = opt.log;
      const int q = log->Add("query", "other", -1, n, log->ToUs(run.start_s),
                             run.seconds * 1e6);
      log->Import(ctx->tracer().root(), q, n);
      log->Add("verify", "verify", -1, n,
               log->ToUs(run.start_s + run.seconds), run.verify_seconds * 1e6);
    }
  }
  close_window(n);
  out->untraced.wall_s = NowSeconds() - start - setup_wall;
  out->untraced.cpu_s = ProcessCpuSeconds() - cpu_start - setup_cpu;
  return Status::OK();
}

Status RunServiceLoop(const Workload& w, uint64_t seed,
                      const Expected& expected, const LoopOptions& opt,
                      LoopOutput* out) {
  const double start = NowSeconds();
  double loop_s = 0.0;  // loop time excludes each round's set-up
  std::atomic<uint64_t> next_query{0};
  LoopResult warmup;  // rounds run until the process is up to speed
  int booked = 0;     // rounds booked after the warm-up
  while (!LoopDone(opt, *out, loop_s) &&
         NowSeconds() - start < kMaxLoopSeconds) {
    const bool warming = NowSeconds() - start < opt.warmup_seconds;
    const bool traced = !warming && opt.traced && booked % 2 == 1;
    if (!warming) ++booked;
    LoopResult& res =
        warming ? warmup : (traced ? out->traced : out->untraced);

    // Set-up: inputs plus service. A fresh disk per round bounds what the
    // retained output files can add to the resident set to one round.
    const double setup_start = NowSeconds();
    TEMPO_ASSIGN_OR_RETURN(Inputs in, MakeInputs(w, seed));
    QueryServiceOptions options;
    options.pool_pages = w.pool_pages;
    options.scheduler.num_threads = w.workers;
    TEMPO_ASSIGN_OR_RETURN(std::unique_ptr<QueryService> service,
                           QueryService::Create(in.disk.get(), options));
    (warming ? warmup : out->untraced)
        .setup_s.push_back(NowSeconds() - setup_start);

    std::mutex mu;
    const uint64_t completed0 = res.completed;
    const size_t latency0 = res.latency_ms.size();
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    std::vector<std::thread> clients;
    for (int s = 0; s < w.sessions; ++s) {
      clients.emplace_back([&, s] {
        Session session = service->OpenSession();
        for (int q = s; q < w.round_queries; q += w.sessions) {
          const size_t c = static_cast<size_t>(q) % w.mix.size();
          const uint64_t qid = next_query.fetch_add(1);
          const double q0 = NowSeconds();
          StatusOr<std::unique_ptr<QueryHandle>> handle =
              session.Submit(MakeRequest(w.mix[c], in, w.buffer_pages));
          Status status = handle.ok() ? (*handle)->Wait() : handle.status();
          const double latency_s = NowSeconds() - q0;
          const double wait_ms =
              handle.ok() ? (*handle)->admission_wait_us() / 1e3 : 0.0;
          JoinRunStats stats;
          Digest got;
          const double v0 = NowSeconds();
          if (status.ok()) {
            stats = (*handle)->stats();
            StatusOr<Digest> digest = DigestOf((*handle)->output());
            if (digest.ok()) {
              got = *digest;
            } else {
              status = digest.status();
            }
          }
          const double verify_s = NowSeconds() - v0;
          // The handle is destroyed here; its output file stays on the
          // disk (reported as service.disk_pages_retained).
          if (handle.ok()) handle->reset();
          std::lock_guard<std::mutex> lock(mu);
          Account(&res, w.mix[c], status, stats, got, Want(expected, c, opt),
                  latency_s);
          res.wait_ms.push_back(wait_ms);
          if (traced && opt.log != nullptr) {
            SpanLog* log = opt.log;
            const double q0_us = log->ToUs(q0);
            const int span = log->Add("query", "other", -1, qid, q0_us,
                                      latency_s * 1e6);
            log->Add("service.admission", "service.admission", span, qid,
                     q0_us, wait_ms * 1e3);
            log->Add("service.exec", "service.exec", span, qid,
                     q0_us + wait_ms * 1e3, latency_s * 1e6 - wait_ms * 1e3);
            log->Add("verify", "verify", -1, qid, log->ToUs(v0),
                     verify_s * 1e6);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double round_s = NowSeconds() - t0;
    const double round_cpu_s = ProcessCpuSeconds() - cpu0;
    if (!warming) loop_s += round_s;
    res.wall_s += round_s;
    res.cpu_s += round_cpu_s;
    if (!opt.traced) {
      res.windows.push_back({res.completed - completed0, round_s, round_cpu_s,
                             MeanFrom(res.latency_ms, latency0)});
    }
    res.queue_peak =
        std::max(res.queue_peak,
                 service->SnapshotMetrics().Get(Metric::kAdmissionQueuePeak));
    res.retained_pages.push_back(
        static_cast<double>(in.disk->TotalPages() - in.input_pages));
    service.reset();
    in = Inputs{};
    // Hand the round's freed heap back to the OS, so one round's residue
    // cannot set a later round's resident peak.
    malloc_trim(0);
  }
  return Status::OK();
}

}  // namespace

Status RunLoop(const Workload& w, uint64_t seed, const Expected& expected,
               Inputs* in, const LoopOptions& options, LoopOutput* out) {
  if (w.sessions > 0) {
    return RunServiceLoop(w, seed, expected, options, out);
  }
  return RunSerialLoop(w, seed, expected, in, options, out);
}

}  // namespace tempo::perfbench
