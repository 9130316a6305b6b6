// The traced run: a loop that alternates untraced and traced queries (for
// the tracing overhead), then the per-layer ledger. The ledger times the
// public function of each layer on the workload's own inputs, replays the
// partition pipeline through its public functions, runs every executor the
// workload could use once with an ExecContext (whose span tree supplies the
// phases that have no public entry point), and reports self time per layer.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/random.h"
#include "core/determine_part_intervals.h"
#include "core/grace_partitioner.h"
#include "core/partition_join.h"
#include "core/planner.h"
#include "core/radix_join.h"
#include "join/external_sort.h"
#include "parallel/scheduler.h"
#include "perfbench.h"
#include "relation/column_extract.h"
#include "service/query_service.h"
#include "storage/page_arena.h"

namespace tempo::perfbench {
namespace {

/// Share of --seconds the traced run spends in its alternating loop; the
/// ledger takes the rest.
constexpr double kTracedLoopShare = 0.5;
constexpr int kTracedMinQueries = 20;
/// Repetitions of each cheap layer probe; the median is reported.
constexpr int kProbeRepeats = 3;
/// Queries a serial workload sends through a one-session service.
constexpr int kServiceProbeQueries = 5;
/// Radix budget of the ledger's forced radix run: large enough for every
/// workload, so the radix phases are measured everywhere.
constexpr uint64_t kLedgerRadixBudget = uint64_t{1} << 30;

/// Layers of the self-time table, in print order.
const char* const kLayers[] = {
    "other",      "core.planner",  "core.optimizer", "sampling",
    "core.grace", "core.join_partitions", "core.radix", "join.sort",
    "join.merge", "executor",
};

double PhaseMs(const ExecContext& ctx, Phase phase) {
  const SpanNode* node = ctx.tracer().root().FindPhase(phase);
  return node == nullptr ? 0.0 : node->stats.wall_seconds * 1e3;
}

double InputScanCost(const StoredRelation& rel) {
  const uint32_t pages = rel.num_pages();
  return pages == 0 ? 0.0 : CostModel::Ratio(5.0).Cost(1, pages - 1);
}

class Ledger {
 public:
  Ledger(const Workload& w, const Expected& expected, Inputs* in,
         SpanLog* log)
      : w_(w), expected_(expected), in_(in), log_(log) {
    if (w.workers > 1) {
      scheduler_ = std::make_unique<Scheduler>(
          SchedulerConfig{w.workers, SchedulerConfig{}.morsel_pages});
    }
  }

  Status Run(const LoopOutput& loop, MetricSet* m);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  struct ExecRun {
    DirectRun run;
    std::unique_ptr<ExecContext> ctx;
    int span = -1;
  };

  ExecRun RunExecutor(const std::string& label, JoinExecutor executor,
                      JoinKind kind, uint64_t radix_budget,
                      const Digest& want);
  Status ProbeStorageAndRelation(MetricSet* m);
  Status Replay(const ExecRun& partition, MetricSet* m);
  Status ProbeSort(MetricSet* m);
  Status ProbeServiceSerial(std::vector<double>* wait_ms,
                            std::vector<double>* exec_ms, double* queue_peak,
                            double* retained);

  JoinRequest Request(JoinExecutor executor, JoinKind kind) const {
    return MakeRequest({"ledger", executor, kind}, *in_, w_.buffer_pages);
  }

  void Verify(const std::string& what, const DirectRun& run,
              const Digest& want) {
    ++attempted_;
    if (run.status.ok() && run.digest == want) return;
    ++failed_;
    std::fprintf(stderr, "ledger run %s failed: %s\n", what.c_str(),
                 run.status.ok() ? "output differs from the expected digest"
                                 : run.status.ToString().c_str());
  }

  const Workload& w_;
  const Expected& expected_;
  Inputs* in_;
  SpanLog* log_;
  std::unique_ptr<Scheduler> scheduler_;
  uint64_t next_id_ = 1000000;  // query ids of ledger spans
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

Ledger::ExecRun Ledger::RunExecutor(const std::string& label,
                                    JoinExecutor executor, JoinKind kind,
                                    uint64_t radix_budget,
                                    const Digest& want) {
  ExecRun er;
  er.ctx = std::make_unique<ExecContext>();
  er.ctx->SetScheduler(scheduler_.get());
  JoinRequest req = Request(executor, kind);
  if (radix_budget != 0) req.RadixBudgetBytes(radix_budget);
  const uint64_t id = next_id_++;
  er.run = RunDirect(req, in_, er.ctx.get());
  er.span = log_->Add("exec." + label, "other", -1, id,
                      log_->ToUs(er.run.start_s), er.run.seconds * 1e6);
  log_->Import(er.ctx->tracer().root(), er.span, id);
  Verify(label, er.run, want);
  return er;
}

Status Ledger::ProbeStorageAndRelation(MetricSet* m) {
  StoredRelation* r = in_->r.get();
  StoredRelation* s = in_->s.get();
  std::vector<Page> pages_r(r->num_pages());
  std::vector<Page> pages_s(s->num_pages());

  // storage: a timed page scan of r (the pages also feed the probes below).
  std::vector<double> scan_s;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    IoAccountant acct;
    ScopedAccountantBinding bind(in_->disk.get(), &acct);
    Span span(log_, "StoredRelation::ReadPage scan of r", "storage");
    const double t0 = NowSeconds();
    for (uint32_t p = 0; p < pages_r.size(); ++p) {
      TEMPO_RETURN_IF_ERROR(r->ReadPage(p, &pages_r[p]));
    }
    scan_s.push_back(NowSeconds() - t0);
  }
  for (uint32_t p = 0; p < pages_s.size(); ++p) {
    TEMPO_RETURN_IF_ERROR(s->ReadPage(p, &pages_s[p]));
  }
  const double scan_mib =
      static_cast<double>(pages_r.size()) * kPageSize / (1024.0 * 1024.0);
  m->Put("storage.scan_mb_per_s", scan_mib / Median(scan_s), "MiB/s");

  // relation: zero-copy decode and join-column extraction of both inputs.
  std::vector<double> decode_s;
  std::vector<double> extract_s;
  uint64_t records = 0;
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         DeriveNaturalJoinLayout(r->schema(), s->schema()));
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    records = 0;
    {
      Span span(log_, "StoredRelation::DecodePageViews r, s", "relation");
      PageTupleArena arena;
      const double t0 = NowSeconds();
      for (const Page& page : pages_r) {
        TEMPO_ASSIGN_OR_RETURN(size_t n, StoredRelation::DecodePageViews(
                                             r->schema(), page, &arena));
        records += n;
        arena.Clear();
      }
      for (const Page& page : pages_s) {
        TEMPO_ASSIGN_OR_RETURN(size_t n, StoredRelation::DecodePageViews(
                                             s->schema(), page, &arena));
        records += n;
        arena.Clear();
      }
      decode_s.push_back(NowSeconds() - t0);
    }
    {
      Span span(log_, "ColumnExtractor::AddPage r, s", "relation");
      ColumnExtractor ex_r(&r->schema(), &layout.r_join_attrs);
      ColumnExtractor ex_s(&s->schema(), &layout.s_join_attrs);
      const double t0 = NowSeconds();
      for (const Page& page : pages_r) {
        TEMPO_RETURN_IF_ERROR(ex_r.AddPage(page).status());
      }
      for (const Page& page : pages_s) {
        TEMPO_RETURN_IF_ERROR(ex_s.AddPage(page).status());
      }
      extract_s.push_back(NowSeconds() - t0);
    }
  }
  m->Put("relation.decode_mrec_per_s",
         static_cast<double>(records) / Median(decode_s) / 1e6, "Mrecords/s");
  m->Put("relation.extract_ms", Median(extract_s) * 1e3, "ms");
  return Status::OK();
}

// Replays PartitionVtJoin's serial pipeline through its public functions:
// DeterminePartIntervals -> GracePartition(r), GracePartition(s) ->
// JoinPartitions, with the query's seed and buffer. The breakdown is valid
// only if the replay reproduces the executor's output digest and charged
// IoStats exactly.
Status Ledger::Replay(const ExecRun& partition, MetricSet* m) {
  StoredRelation* r = in_->r.get();
  StoredRelation* s = in_->s.get();
  Disk* disk = in_->disk.get();
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         DeriveNaturalJoinLayout(r->schema(), s->schema()));
  const uint64_t id = next_id_++;
  IoAccountant acct;
  ScopedAccountantBinding bind(disk, &acct);
  Span root(log_, "replay", "other", -1, id);
  const CostModel model = CostModel::Ratio(5.0);

  PartitionPlanOptions plan_options;
  plan_options.buffer_pages = w_.buffer_pages;
  plan_options.cost_model = model;
  Random rng(kQuerySeed);
  ExecContext plan_ctx;
  plan_ctx.BindAccountant(&acct);
  double t0 = NowSeconds();
  StatusOr<PartitionPlan> plan_or = Status::Internal("unset");
  {
    Span span(log_, "DeterminePartIntervals", "core.optimizer", root.id(), id);
    plan_or = DeterminePartIntervals(r, plan_options, &rng, &plan_ctx);
    log_->Import(plan_ctx.tracer().root(), span.id(), id);
  }
  plan_ctx.BindAccountant(nullptr);
  TEMPO_RETURN_IF_ERROR(plan_or.status());
  const PartitionPlan& plan = *plan_or;
  const double choose_ms = (NowSeconds() - t0) * 1e3;
  const IoStats after_plan = acct.stats();

  t0 = NowSeconds();
  StatusOr<PartitionedRelation> pr = Status::Internal("unset");
  StatusOr<PartitionedRelation> ps = Status::Internal("unset");
  {
    Span span(log_, "GracePartition r", "core.grace", root.id(), id);
    pr = GracePartition(r, plan.spec, w_.buffer_pages,
                        PlacementPolicy::kLastOverlap, r->name());
  }
  {
    Span span(log_, "GracePartition s", "core.grace", root.id(), id);
    ps = GracePartition(s, plan.spec, w_.buffer_pages,
                        PlacementPolicy::kLastOverlap, s->name());
  }
  TEMPO_RETURN_IF_ERROR(pr.status());
  TEMPO_RETURN_IF_ERROR(ps.status());
  const double grace_ms = (NowSeconds() - t0) * 1e3;

  StoredRelation out(disk, layout.output, "replay.out");
  TEMPO_RETURN_IF_ERROR(out.SetCharged(false));
  t0 = NowSeconds();
  StatusOr<JoinRunStats> joined = Status::Internal("unset");
  {
    Span span(log_, "JoinPartitions", "core.join_partitions", root.id(), id);
    joined = JoinPartitions(layout, plan.spec, &*pr, &*ps, &out,
                            w_.buffer_pages, PlacementPolicy::kLastOverlap);
  }
  const double join_ms = (NowSeconds() - t0) * 1e3;
  pr->Drop();
  ps->Drop();
  TEMPO_RETURN_IF_ERROR(joined.status());
  const IoStats total = acct.stats();
  TEMPO_ASSIGN_OR_RETURN(Digest digest, DigestOf(&out));
  TEMPO_RETURN_IF_ERROR(disk->DeleteFile(out.file_id()));
  root.End();

  const bool valid = partition.run.status.ok() &&
                     digest == partition.run.digest &&
                     total == partition.run.stats.io;
  std::printf("partition replay: %u partitions, digest %s, charged I/O %s"
              " (replay %s vs executor %s): breakdown %s\n",
              plan.num_partitions,
              digest == partition.run.digest ? "equal" : "DIFFERS",
              total == partition.run.stats.io ? "equal" : "DIFFERS",
              total.ToString().c_str(),
              partition.run.stats.io.ToString().c_str(),
              valid ? "valid" : "INVALID");

  const double sample_cost = after_plan.Cost(model);
  const double join_cost = (total - after_plan).Cost(model) -
                           InputScanCost(*r) - InputScanCost(*s);
  m->Put("core.replay_valid", valid ? 1.0 : 0.0, "flag");
  m->Put("core.choose_intervals_ms", choose_ms, "ms");
  m->Put("sampling.samples", static_cast<double>(plan.samples_drawn), "count");
  m->Put("sampling.cost_qerror", QError(plan.est_sample_cost, sample_cost),
         "ratio");
  m->Put("core.join_cost_qerror", QError(plan.est_join_cost, join_cost),
         "ratio");
  m->Put("core.grace_ms", grace_ms, "ms");
  m->Put("core.join_partitions_ms", join_ms, "ms");
  m->Put("core.join_output_mtuples_per_s",
         join_ms > 0.0 ? static_cast<double>(joined->output_tuples) /
                             (join_ms * 1e3)
                       : 0.0,
         "Mtuples/s");
  m->Put("core.cache_pages_spilled", joined->Get(Metric::kCachePagesSpilled),
         "pages");
  m->Put("core.overflow_chunks", joined->Get(Metric::kOverflowChunks),
         "count");
  return Status::OK();
}

Status Ledger::ProbeSort(MetricSet* m) {
  std::vector<double> sort_s;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    IoAccountant acct;
    ScopedAccountantBinding bind(in_->disk.get(), &acct);
    double total = 0.0;
    for (StoredRelation* rel : {in_->r.get(), in_->s.get()}) {
      Span span(log_, "ExternalSortByVs " + rel->name(), "join.sort");
      const double t0 = NowSeconds();
      TEMPO_ASSIGN_OR_RETURN(
          SortedRelation sorted,
          ExternalSortByVs(rel, w_.buffer_pages, rel->name() + ".sorted",
                           scheduler_.get()));
      total += NowSeconds() - t0;
      TEMPO_RETURN_IF_ERROR(
          in_->disk->DeleteFile(sorted.relation->file_id()));
    }
    sort_s.push_back(total);
  }
  m->Put("join.sort_ms", Median(sort_s) * 1e3, "ms");
  return Status::OK();
}

// Serial workloads bypass the service; sending a few of their queries
// through a one-session service measures what the layer adds when
// uncontended (the prediction for a service change on these workloads is
// no change).
Status Ledger::ProbeServiceSerial(std::vector<double>* wait_ms,
                                  std::vector<double>* exec_ms,
                                  double* queue_peak, double* retained) {
  QueryServiceOptions options;
  options.pool_pages = w_.buffer_pages;
  options.scheduler.num_threads = 1;
  const uint64_t pages_before = in_->disk->TotalPages();
  {
    TEMPO_ASSIGN_OR_RETURN(std::unique_ptr<QueryService> service,
                           QueryService::Create(in_->disk.get(), options));
    Session session = service->OpenSession();
    for (int q = 0; q < kServiceProbeQueries; ++q) {
      const size_t c = static_cast<size_t>(q) % w_.mix.size();
      const double q0 = NowSeconds();
      TEMPO_ASSIGN_OR_RETURN(
          std::unique_ptr<QueryHandle> handle,
          session.Submit(MakeRequest(w_.mix[c], *in_, w_.buffer_pages)));
      DirectRun run;
      run.status = handle->Wait();
      const double latency_ms = (NowSeconds() - q0) * 1e3;
      if (run.status.ok()) {
        StatusOr<Digest> digest = DigestOf(handle->output());
        run.status = digest.status();
        if (digest.ok()) run.digest = *digest;
      }
      Verify(std::string("service probe ") + w_.mix[c].label, run,
             expected_[c]);
      wait_ms->push_back(handle->admission_wait_us() / 1e3);
      exec_ms->push_back(latency_ms - wait_ms->back());
    }
    *queue_peak =
        service->SnapshotMetrics().Get(Metric::kAdmissionQueuePeak);
  }
  *retained = static_cast<double>(in_->disk->TotalPages() - pages_before);
  return Status::OK();
}

Status Ledger::Run(const LoopOutput& loop, MetricSet* m) {
  const LoopResult& u = loop.untraced;
  const double completed = std::max<double>(1.0, static_cast<double>(u.completed));
  const Digest inner = expected_[0];  // mix[0] is inner everywhere
  const CostModel model = CostModel::Ratio(5.0);

  // storage: charged page traffic per query of the timed loop.
  m->Put("storage.pages_read",
         static_cast<double>(u.io.random_reads + u.io.sequential_reads) /
             completed,
         "pages");
  m->Put("storage.pages_written",
         static_cast<double>(u.io.random_writes + u.io.sequential_writes) /
             completed,
         "pages");
  m->Put("storage.random_ops", static_cast<double>(u.io.total_random()) /
                                   completed,
         "ops");
  TEMPO_RETURN_IF_ERROR(ProbeStorageAndRelation(m));

  // Every executor the workload could use, once each, traced.
  ExecRun autorun =
      RunExecutor("auto", JoinExecutor::kAuto, JoinKind::kInner, 0, inner);
  ExecRun partition = RunExecutor("partition", JoinExecutor::kPartition,
                                  JoinKind::kInner, 0, inner);
  ExecRun sweep =
      RunExecutor("sweep", JoinExecutor::kSweep, JoinKind::kInner, 0, inner);
  ExecRun sort_merge = RunExecutor("sort-merge", JoinExecutor::kSortMerge,
                                   JoinKind::kInner, 0, inner);
  ExecRun radix = RunExecutor("radix", JoinExecutor::kInMemoryRadix,
                              JoinKind::kInner, kLedgerRadixBudget, inner);

  TEMPO_RETURN_IF_ERROR(Replay(partition, m));

  m->Put("core.radix_extract_ms", PhaseMs(*radix.ctx, Phase::kRadixExtract),
         "ms");
  m->Put("core.radix_partition_ms",
         PhaseMs(*radix.ctx, Phase::kRadixPartition), "ms");
  m->Put("core.radix_probe_ms", PhaseMs(*radix.ctx, Phase::kRadixProbe), "ms");
  const JoinRunStats& rs = radix.run.stats;
  const double est_footprint = rs.Get(Metric::kRadixEstFootprintBytes);
  m->Put("core.radix_footprint_ratio",
         est_footprint > 0
             ? rs.Get(Metric::kRadixActFootprintBytes) / est_footprint
             : 0.0,
         "ratio");
  m->Put("core.radix_fallbacks", autorun.run.stats.Get(Metric::kRadixFallback),
         "count");

  // planner
  std::vector<double> plan_s;
  const JoinRequest auto_req = Request(JoinExecutor::kAuto, JoinKind::kInner);
  JoinAlgorithm chosen = JoinAlgorithm::kPartition;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    Span span(log_, "PlanVtJoin", "core.planner");
    const double t0 = NowSeconds();
    chosen = PlanVtJoin(in_->r.get(), in_->s.get(), auto_req.options).algorithm;
    plan_s.push_back(NowSeconds() - t0);
  }
  m->Put("core.plan_ms", Median(plan_s) * 1e3, "ms");
  m->Put("core.plan_cost_qerror",
         QError(autorun.run.stats.Get(Metric::kPlannedCost),
                autorun.run.stats.io.Cost(model)),
         "ratio");
  // Regret: the planner's pick against the fastest executor eligible for
  // the same request (radix only when its footprint fits the budget).
  double fastest = std::numeric_limits<double>::infinity();
  for (const ExecRun* er : {&partition, &sweep, &sort_merge}) {
    if (er->run.status.ok()) fastest = std::min(fastest, er->run.seconds);
  }
  if (EstimateRadixFootprintBytes(in_->r->num_pages(), in_->s->num_pages()) <=
          ResolveRadixBudgetBytes(auto_req.options) &&
      radix.run.status.ok()) {
    fastest = std::min(fastest, radix.run.seconds);
  }
  m->Put("core.plan_regret", autorun.run.seconds / fastest, "ratio");
  std::printf("planner picks %s: %.1f ms; partition %.1f, sweep %.1f, "
              "sort-merge %.1f, radix %.1f ms\n",
              JoinAlgorithmName(chosen), autorun.run.seconds * 1e3,
              partition.run.seconds * 1e3, sweep.run.seconds * 1e3,
              sort_merge.run.seconds * 1e3, radix.run.seconds * 1e3);

  // join
  TEMPO_RETURN_IF_ERROR(ProbeSort(m));
  const JoinRunStats& sm = sort_merge.run.stats;
  const JoinRunStats& sw = sweep.run.stats;
  m->Put("join.merge_ms", PhaseMs(*sort_merge.ctx, Phase::kMergeSweep), "ms");
  m->Put("join.backup_page_reads", sm.Get(Metric::kBackupPageReads), "pages");
  m->Put("join.sweep_pass_ms", PhaseMs(*sweep.ctx, Phase::kSweepPass), "ms");
  m->Put("join.sweep_active_peak", sw.Get(Metric::kSweepActivePeak), "tuples");
  m->Put("join.sweep_hits_per_append",
         sw.Get(Metric::kSweepAppends) > 0
             ? sw.Get(Metric::kSweepProbeHits) / sw.Get(Metric::kSweepAppends)
             : 0.0,
         "ratio");

  // parallel
  m->Put("parallel.cpu_per_wall", u.wall_s > 0 ? u.cpu_s / u.wall_s : 0.0,
         "ratio");
  m->Put("parallel.morsels", u.morsels / completed, "count");
  m->Put("parallel.efficiency", u.parallel_efficiency / completed, "ratio");

  // service
  std::vector<double> wait_ms;
  std::vector<double> exec_ms;
  double queue_peak = 0.0;
  double retained = 0.0;
  if (w_.sessions > 0) {
    wait_ms = u.wait_ms;
    for (size_t i = 0; i < u.latency_ms.size(); ++i) {
      exec_ms.push_back(u.latency_ms[i] - u.wait_ms[i]);
    }
    queue_peak = u.queue_peak;
    double sum = 0.0;
    for (double pages : u.retained_pages) sum += pages;
    retained = u.retained_pages.empty()
                   ? 0.0
                   : sum / static_cast<double>(u.retained_pages.size());
  } else {
    TEMPO_RETURN_IF_ERROR(
        ProbeServiceSerial(&wait_ms, &exec_ms, &queue_peak, &retained));
  }
  m->Put("service.admission_wait_ms_p50", Percentile(wait_ms, 0.5), "ms");
  m->Put("service.admission_wait_ms_p90", Percentile(wait_ms, 0.9), "ms");
  m->Put("service.exec_ms_p50", Percentile(exec_ms, 0.5), "ms");
  m->Put("service.queue_peak", queue_peak, "count");
  m->Put("service.disk_pages_retained", retained, "pages");

  // Tail latency of the loop's untraced samples. Not an end-to-end metric:
  // on a shared host the tail of a run belongs to the host (README.md).
  m->Put("loop.query_ms_p90", Percentile(u.latency_ms, 0.9), "ms");

  // obs
  const double untraced_ms = Mean(u.latency_ms);
  const double traced_ms = Mean(loop.traced.latency_ms);
  m->Put("obs.trace_overhead_pct",
         untraced_ms > 0 ? (traced_ms / untraced_ms - 1.0) * 100.0 : 0.0, "%");

  // Self time per layer over one traced run of each query class.
  std::vector<int> roots;
  for (size_t c = 0; c < w_.mix.size(); ++c) {
    const QueryClass& qc = w_.mix[c];
    if (qc.kind != JoinKind::kInner) {
      ExecRun outer = RunExecutor(qc.label, qc.executor, qc.kind, 0,
                                  expected_[c]);
      roots.push_back(outer.span);
    } else if (qc.executor == JoinExecutor::kSweep) {
      roots.push_back(sweep.span);
    } else if (qc.executor == JoinExecutor::kSortMerge) {
      roots.push_back(sort_merge.span);
    } else if (qc.executor == JoinExecutor::kPartition) {
      roots.push_back(partition.span);
    } else {
      roots.push_back(autorun.span);
    }
  }
  std::map<std::string, double> self = log_->SelfMsByLayer(roots);
  double total_ms = 0.0;
  for (int root : roots) total_ms += log_->DurationMs(root);
  std::printf("self time by layer over one traced query of each class "
              "(%zu classes, %.1f ms):\n",
              roots.size(), total_ms);
  for (const char* layer : kLayers) {
    const double ms = self.count(layer) != 0 ? self[layer] : 0.0;
    std::printf("  %-22s %10.2f ms %6.1f%%\n", layer, ms,
                total_ms > 0 ? 100.0 * ms / total_ms : 0.0);
    m->Put(std::string("share_pct.") + layer,
           total_ms > 0 ? 100.0 * ms / total_ms : 0.0, "%");
  }
  return Status::OK();
}

}  // namespace

Status RunTraced(const Workload& w, uint64_t seed, double seconds,
                 const std::string& trace_path, RunResult* result) {
  SpanLog log;
  TEMPO_ASSIGN_OR_RETURN(Inputs in, MakeInputs(w, seed));
  uint64_t checks = 0;
  uint64_t check_failures = 0;
  TEMPO_ASSIGN_OR_RETURN(
      Expected expected,
      ComputeExpected(w, seed, &in, &checks, &check_failures));

  LoopOptions options;
  options.seconds = seconds * kTracedLoopShare;
  options.min_queries = kTracedMinQueries;
  options.traced = true;
  options.log = &log;
  LoopOutput loop;
  TEMPO_RETURN_IF_ERROR(RunLoop(w, seed, expected, &in, options, &loop));

  Ledger ledger(w, expected, &in, &log);
  TEMPO_RETURN_IF_ERROR(ledger.Run(loop, &result->metrics));

  if (!trace_path.empty()) TEMPO_RETURN_IF_ERROR(log.WriteJson(trace_path));
  result->attempted = loop.untraced.attempted + loop.traced.attempted +
                      checks + ledger.attempted();
  result->failed = loop.untraced.failed + loop.traced.failed +
                   check_failures + ledger.failed();
  result->correct = result->failed == 0;
  return Status::OK();
}

}  // namespace tempo::perfbench
