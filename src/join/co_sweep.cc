// The sorted co-sweep behind the sort-merge and sweep executors: both
// inputs sorted by (Vs, Ve), streamed in one merged arrival order, each
// arrival probing the opposite side's active map. The two executors differ
// only in what they pass in — sort-merge a retention budget whose evictions
// force page back-ups (paper Section 4.3), the sweep none — and in their
// result writer, spans and metrics.

#include <algorithm>
#include <queue>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "join/external_sort.h"
#include "join/join_common.h"
#include "relation/column_extract.h"

namespace tempo {

namespace {

/// Zero-copy sequential cursor over a sorted relation: reads
/// `chunk_pages` consecutive pages per refill (1 random + (c-1)
/// sequential I/Os), holds them in a PageTupleArena, and exposes each
/// record as a TupleView into the pinned page bytes, with the page it came
/// from. Views stay valid until the next refill — exactly the window the
/// co-sweep needs, since an arrival is probed, emitted and copied into its
/// active map before its stream advances.
class SortedStream {
 public:
  SortedStream(StoredRelation* rel, uint32_t chunk_pages)
      : rel_(rel), chunk_pages_(chunk_pages) {
    pins_.reserve(chunk_pages_);
  }

  StoredRelation* relation() const { return rel_; }
  bool Exhausted() const { return exhausted_; }
  const TupleView& Head() const { return arena_.views()[pos_]; }
  uint32_t HeadPage() const { return view_pages_[pos_]; }

  /// Loads the first chunk. Must be called once before use.
  Status Prime() { return RefillIfNeeded(); }

  /// Consumes the head record.
  Status Pop() {
    ++pos_;
    return RefillIfNeeded();
  }

 private:
  Status RefillIfNeeded() {
    if (pos_ < arena_.views().size()) return Status::OK();
    arena_.Clear();
    view_pages_.clear();
    pos_ = 0;
    const uint32_t first = next_page_;
    const uint32_t end =
        std::min(rel_->num_pages(), next_page_ + chunk_pages_);
    if (next_page_ >= end) {
      exhausted_ = true;
      return Status::OK();
    }
    // Every page of the chunk is pinned before any is parsed.
    pins_.clear();
    for (; next_page_ < end; ++next_page_) {
      TEMPO_ASSIGN_OR_RETURN(PagePin page, rel_->PinPage(next_page_));
      pins_.push_back(std::move(page));
    }
    for (uint32_t i = 0; i < pins_.size(); ++i) {
      TEMPO_RETURN_IF_ERROR(
          arena_.AddPage(rel_->schema(), std::move(pins_[i])).status());
      view_pages_.resize(arena_.views().size(), first + i);
    }
    return Status::OK();
  }

  StoredRelation* rel_;
  uint32_t chunk_pages_;
  uint32_t next_page_ = 0;
  bool exhausted_ = false;
  std::vector<PagePin> pins_;  // the chunk's pages until they are parsed
  PageTupleArena arena_;       // the current chunk's pages and views
  std::vector<uint32_t> view_pages_;  // each view's page
  size_t pos_ = 0;
};

/// One side's active tuples as a gapless append log in structure-of-arrays
/// layout: `ends_[i]`, `rows_[i]`, `pages_[i]` and `seqs_[i]` describe
/// the i-th arrival that has not been compacted away. `rows_[i]` is a
/// TupleView over a copy of the arrival's record bytes in a RecordArena
/// (SortedStream already validated them with TupleView::Make), so no
/// Tuple is built for an active entry. Hash buckets
/// (`unordered_map<size_t, vector<uint32_t>>`) hold indices into the log;
/// a probe consults the flat end array first, so the common miss (expired
/// entry) costs one contiguous load, and swap-removes the expired indices
/// it passes over. A global compaction rebuilds the log (preserving append
/// order, and re-packing the survivors' bytes into a spare arena that then
/// swaps with the first) only when more than half of it is dead, keeping
/// it gapless without per-expiry bookkeeping. Compaction applies to every
/// bucket the swap-removal a probe at the same bound would do, renumbering
/// the survivors and erasing emptied buckets, so bucket entries never
/// outnumber the log: both stay O(live) even for keys the other side never
/// probes.
/// Removing dead entries early makes a bucket's order — and with it the
/// order sort-merge emits matches and re-reads evicted pages in — depend on
/// when compactions ran; which partners match does not.
class GaplessActiveMap {
 public:
  /// `layout` and `key_attrs` are borrowed and must outlive the map.
  GaplessActiveMap(const RecordLayout* layout,
                   const std::vector<size_t>* key_attrs)
      : layout_(layout), key_attrs_(key_attrs) {}

  /// Appends an arrival, copying its record bytes. `hash` must be the
  /// arrival's HashAttrs over this side's key positions; `page` is its
  /// sorted-file page and `seq` its arrival number.
  void Insert(const TupleView& arrival, size_t hash, uint32_t page,
              uint64_t seq) {
    const uint32_t idx = static_cast<uint32_t>(rows_.size());
    const std::string_view rec = arrival.record();
    ends_.push_back(arrival.interval().end());
    rows_.push_back(
        TupleView::Trusted(*layout_, arena_.Copy(rec), rec.size()));
    pages_.push_back(page);
    seqs_.push_back(seq);
    buckets_[hash].push_back(idx);
    expiry_.push(std::make_pair(ends_.back(), idx));
    ++appends_;
    peak_ = std::max(peak_, Live());
    bucket_entries_peak_ = std::max(bucket_entries_peak_, ++bucket_entries_);
  }

  /// Advances the sweep position: every entry with end < `expire_bound`
  /// is dead, and on_expire(seq) is called once for each entry that dies
  /// here. Compacts when the append log is more than half dead.
  template <typename Fn>
  void ExpireTo(Chronon expire_bound, Fn&& on_expire) {
    while (!expiry_.empty() && expiry_.top().first < expire_bound) {
      on_expire(seqs_[expiry_.top().second]);
      expiry_.pop();
      ++dead_;
    }
    if (rows_.size() >= 64 && dead_ * 2 > rows_.size()) {
      Compact(expire_bound);
    }
  }

  /// Calls fn(const TupleView&, page, seq) for every live entry
  /// (end >= `expire_bound`) matching `probe` on the aligned key
  /// positions. `visited` counts the live candidates inspected.
  template <typename Fn>
  void ForEachCandidate(const TupleView& probe,
                        const std::vector<size_t>& probe_attrs,
                        Chronon expire_bound, uint64_t* visited, Fn&& fn) {
    size_t h = probe.HashAttrs(probe_attrs);
    auto it = buckets_.find(h);
    if (it == buckets_.end()) return;
    auto& vec = it->second;
    for (size_t i = 0; i < vec.size();) {
      const uint32_t idx = vec[i];
      if (ends_[idx] < expire_bound) {
        vec[i] = vec.back();
        vec.pop_back();
        --bucket_entries_;
        continue;
      }
      ++*visited;
      if (probe.EqualOnAttrs(probe_attrs, *key_attrs_, rows_[idx])) {
        fn(rows_[idx], pages_[idx], seqs_[idx]);
      }
      ++i;
    }
    if (vec.empty()) buckets_.erase(it);
  }

  uint64_t Live() const { return rows_.size() - dead_; }
  uint64_t peak() const { return peak_; }
  uint64_t bucket_entries_peak() const { return bucket_entries_peak_; }
  uint64_t appends() const { return appends_; }
  uint64_t compactions() const { return compactions_; }

 private:
  static constexpr uint32_t kDead = UINT32_MAX;

  void Compact(Chronon expire_bound) {
    std::vector<uint32_t> renumber(rows_.size(), kDead);
    std::vector<std::pair<Chronon, uint32_t>> heap;
    heap.reserve(Live());
    spare_.Clear();
    size_t kept = 0;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (ends_[i] < expire_bound) continue;
      renumber[i] = static_cast<uint32_t>(kept);
      heap.emplace_back(ends_[i], static_cast<uint32_t>(kept));
      const std::string_view rec = rows_[i].record();
      ends_[kept] = ends_[i];
      rows_[kept] =
          TupleView::Trusted(*layout_, spare_.Copy(rec), rec.size());
      pages_[kept] = pages_[i];
      seqs_[kept] = seqs_[i];
      ++kept;
    }
    std::swap(arena_, spare_);
    ends_.resize(kept);
    rows_.resize(kept);
    pages_.resize(kept);
    seqs_.resize(kept);
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      auto& vec = it->second;
      for (size_t i = 0; i < vec.size();) {
        const uint32_t idx = renumber[vec[i]];
        if (idx == kDead) {
          vec[i] = vec.back();
          vec.pop_back();
          continue;
        }
        vec[i++] = idx;
      }
      it = vec.empty() ? buckets_.erase(it) : std::next(it);
    }
    bucket_entries_ = kept;
    expiry_ = ExpiryHeap(ExpiryHeap::value_compare(), std::move(heap));
    dead_ = 0;
    ++compactions_;
  }

  using ExpiryHeap =
      std::priority_queue<std::pair<Chronon, uint32_t>,
                          std::vector<std::pair<Chronon, uint32_t>>,
                          std::greater<>>;

  const RecordLayout* layout_;
  const std::vector<size_t>* key_attrs_;
  RecordArena arena_;  // record bytes of rows_
  RecordArena spare_;  // re-pack target of Compact
  std::vector<Chronon> ends_;
  std::vector<TupleView> rows_;
  std::vector<uint32_t> pages_;
  std::vector<uint64_t> seqs_;
  std::unordered_map<size_t, std::vector<uint32_t>> buckets_;
  ExpiryHeap expiry_;  // (end, idx) min-heap driving the dead_ count
  size_t dead_ = 0;
  uint64_t bucket_entries_ = 0;
  uint64_t peak_ = 0;
  uint64_t bucket_entries_peak_ = 0;
  uint64_t appends_ = 0;
  uint64_t compactions_ = 0;
};

/// Sort-merge's memory policy: which active tuples still fit in the merge
/// window, and the back-up reads a match against one that does not costs.
///
/// Live (not-yet-expired) tuples are retained in memory until their total
/// bytes exceed the budget; then the tuples with the *largest remaining
/// Ve* are evicted first — they are the long-lived tuples that would clog
/// memory longest, and they are exactly the tuples the paper says force
/// sort-merge to back up: a later match against an evicted tuple must
/// physically re-read its sorted-file page. The re-read page's long-lived
/// tuples are retained from then on — they are exactly the tuples worth
/// keeping — so each backed-up page is re-read at most once over the whole
/// merge. Short tuples are never the eviction victims (they expire almost
/// immediately), so a workload without long-lived tuples never backs up
/// regardless of budget.
///
/// The budget does no expiry tracking of its own: the active maps report
/// each arrival's death through Expire, at the same sweep positions.
class RetentionBudget {
 public:
  explicit RetentionBudget(size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  /// Registers arrival `seq` of `bytes` bytes ending at `ve`, evicting
  /// over budget.
  void Add(uint64_t seq, size_t bytes, Chronon ve) {
    retained_.emplace(seq, bytes);
    retained_bytes_ += bytes;
    by_ve_desc_.push_back(Entry{ve, seq});
    std::push_heap(by_ve_desc_.begin(), by_ve_desc_.end(), VeLess());
    while (retained_bytes_ > budget_bytes_ && !by_ve_desc_.empty()) {
      std::pop_heap(by_ve_desc_.begin(), by_ve_desc_.end(), VeLess());
      Release(by_ve_desc_.back().seq);  // no-op if the victim has expired
      by_ve_desc_.pop_back();
    }
    // Expired entries stay in the heap until they outnumber the retained
    // ones; dropping them then keeps the heap O(live).
    if (by_ve_desc_.size() > 2 * retained_.size() + 64) {
      std::erase_if(by_ve_desc_, [this](const Entry& e) {
        return retained_.count(e.seq) == 0;
      });
      std::make_heap(by_ve_desc_.begin(), by_ve_desc_.end(), VeLess());
    }
  }

  /// Arrival `seq` has expired; releases its bytes if it was retained.
  void Expire(uint64_t seq) { Release(seq); }

  /// A match against live arrival `seq`, held on `page` of `rel`: re-reads
  /// the page if the tuple was evicted and the page was not re-read before.
  Status ChargeMatch(uint64_t seq, StoredRelation* rel, uint32_t page) {
    if (retained_.count(seq) != 0) return Status::OK();
    const uint64_t key = (static_cast<uint64_t>(rel->file_id()) << 32) | page;
    if (!backed_up_pages_.insert(key).second) return Status::OK();
    TEMPO_RETURN_IF_ERROR(rel->PinPage(page).status());
    ++backup_page_reads_;
    return Status::OK();
  }

  uint64_t backup_page_reads() const { return backup_page_reads_; }

 private:
  struct Entry {
    Chronon ve;
    uint64_t seq;
  };
  struct VeLess {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.ve != b.ve ? a.ve < b.ve : a.seq < b.seq;
    }
  };
  void Release(uint64_t seq) {
    auto it = retained_.find(seq);
    if (it == retained_.end()) return;
    retained_bytes_ -= it->second;
    retained_.erase(it);
  }

  size_t budget_bytes_;
  size_t retained_bytes_ = 0;
  std::unordered_map<uint64_t, size_t> retained_;  // seq -> record bytes
  std::vector<Entry> by_ve_desc_;  // max-heap on VeLess: eviction victims
  std::unordered_set<uint64_t> backed_up_pages_;
  uint64_t backup_page_reads_ = 0;
};

struct CoSweepStats {
  uint64_t arrivals = 0;      ///< records read off both streams
  uint64_t active_peak = 0;   ///< sum of both sides' peak live entries
  uint64_t bucket_entries_peak = 0;  ///< sum of both sides' bucket peaks
  uint64_t appends = 0;
  uint64_t compactions = 0;
  uint64_t probe_visits = 0;  ///< live candidates inspected by probes
};

/// Joins the sorted inputs in one forward sweep over the merged arrival
/// order (ties admit r first). Each arrival expires both active maps to
/// the sweep position, probes the opposite map by join key, emits every
/// partner `pred` admits into `writer`, and appends itself to its own
/// side's map. With meets/met-by in `pred` the expiry bound is slackened
/// one chronon, so an entry ending one chronon before the sweep survives
/// to meet its adjacent partner. A non-null `budget` is told of every
/// arrival and every expiry, and charged for every emitted match.
StatusOr<CoSweepStats> CoSweep(const NaturalJoinLayout& layout,
                               const SortedInputs& inputs,
                               uint32_t buffer_pages,
                               const TemporalPredicate& pred,
                               RetentionBudget* budget, ResultWriter* writer) {
  struct Side {
    SortedStream stream;
    GaplessActiveMap active;
    const std::vector<size_t>* keys;
  };
  const uint32_t chunk = StreamChunkPages(buffer_pages);
  StoredRelation* r_rel = inputs.r.relation.get();
  StoredRelation* s_rel = inputs.s.relation.get();
  Side r{SortedStream(r_rel, chunk),
         GaplessActiveMap(&r_rel->schema().layout(), &layout.r_join_attrs),
         &layout.r_join_attrs};
  Side s{SortedStream(s_rel, chunk),
         GaplessActiveMap(&s_rel->schema().layout(), &layout.s_join_attrs),
         &layout.s_join_attrs};
  TEMPO_RETURN_IF_ERROR(r.stream.Prime());
  TEMPO_RETURN_IF_ERROR(s.stream.Prime());

  // The default overlap disjunction needs no classification (a live key
  // match overlaps by construction); any narrower mask classifies in
  // (r, s) order.
  const bool emit_all = pred.IsOverlapDefault();
  const bool adjacency = pred.NeedsAdjacency();

  auto expired = [budget](uint64_t seq) {
    if (budget != nullptr) budget->Expire(seq);
  };
  CoSweepStats stats;
  while (!r.stream.Exhausted() || !s.stream.Exhausted()) {
    const bool take_r =
        s.stream.Exhausted() ||
        (!r.stream.Exhausted() &&
         !IntervalStartLess()(s.stream.Head().interval(),
                              r.stream.Head().interval()));
    Side& in = take_r ? r : s;
    Side& opposite = take_r ? s : r;
    const TupleView& arrival = in.stream.Head();
    const Chronon sweep = arrival.interval().start();
    const Chronon expire_bound =
        adjacency && sweep != kChrononMin ? sweep - 1 : sweep;

    r.active.ExpireTo(expire_bound, expired);
    s.active.ExpireTo(expire_bound, expired);

    // The arrival is probed and emitted as a view into its stream page;
    // its record bytes are copied once, into its own side's active map.
    const uint64_t seq = stats.arrivals++;
    Status status = Status::OK();
    opposite.active.ForEachCandidate(
        arrival, *in.keys, expire_bound, &stats.probe_visits,
        [&](const TupleView& entry, uint32_t page, uint64_t entry_seq) {
          if (!status.ok()) return;
          const TupleView& x = take_r ? arrival : entry;
          const TupleView& y = take_r ? entry : arrival;
          const Interval x_iv = x.interval();
          const Interval y_iv = y.interval();
          if (!emit_all && !pred.Test(ClassifyAllen(x_iv, y_iv))) return;
          if (budget != nullptr) {
            status = budget->ChargeMatch(entry_seq,
                                         opposite.stream.relation(), page);
            if (!status.ok()) return;
          }
          status = writer->Emit(layout, x, y,
                                PredicateResultInterval(x_iv, y_iv));
        });
    TEMPO_RETURN_IF_ERROR(status);
    if (budget != nullptr) {
      budget->Add(seq, arrival.record().size(), arrival.interval().end());
    }
    in.active.Insert(arrival, arrival.HashAttrs(*in.keys),
                     in.stream.HeadPage(), seq);
    TEMPO_RETURN_IF_ERROR(in.stream.Pop());
  }
  stats.active_peak = r.active.peak() + s.active.peak();
  stats.bucket_entries_peak =
      r.active.bucket_entries_peak() + s.active.bucket_entries_peak();
  stats.appends = r.active.appends() + s.active.appends();
  stats.compactions = r.active.compactions() + s.active.compactions();
  return stats;
}

}  // namespace

// Declared in service/executor_bodies.h; runs under RunJoinContract.
StatusOr<JoinRunStats> SortMergeBody(const NaturalJoinLayout& layout,
                                     StoredRelation* r, StoredRelation* s,
                                     StoredRelation* out,
                                     const ExecOptions& options,
                                     ExecContext* ctx) {
  TraceSpan exec_span = SpanIf(ctx, Phase::kSortMerge);
  TEMPO_ASSIGN_OR_RETURN(
      SortedInputs sorted,
      SortInputsByVs(r, s, options.buffer_pages, ctx));
  TraceSpan sweep_span = SpanIf(ctx, Phase::kMergeSweep);

  RetentionBudget budget(
      static_cast<size_t>(MergeWindowPages(options.buffer_pages)) *
      kPageSize);
  ResultWriter writer(out);
  TEMPO_ASSIGN_OR_RETURN(CoSweepStats sweep,
                         CoSweep(layout, sorted, options.buffer_pages,
                                 options.predicate, &budget, &writer));
  TEMPO_RETURN_IF_ERROR(writer.Finish());

  JoinRunStats stats;
  stats.output_tuples = writer.count();
  stats.Set(Metric::kSortIoOps, static_cast<double>(sorted.io.total_ops()));
  stats.Set(Metric::kBackupPageReads,
            static_cast<double>(budget.backup_page_reads()));
  stats.Set(Metric::kMaxActiveTuples, static_cast<double>(sweep.active_peak));
  stats.Set(Metric::kActiveBucketEntriesPeak,
            static_cast<double>(sweep.bucket_entries_peak));
  return stats;
}

// Declared in service/executor_bodies.h; runs under RunJoinContract.
StatusOr<JoinRunStats> SweepBody(const NaturalJoinLayout& layout,
                                 StoredRelation* r, StoredRelation* s,
                                 StoredRelation* out,
                                 const ExecOptions& options, ExecContext* ctx) {
  TraceSpan exec_span = SpanIf(ctx, Phase::kSweepJoin);
  TEMPO_ASSIGN_OR_RETURN(
      SortedInputs sorted,
      SortInputsByVs(r, s, options.buffer_pages, ctx));
  TraceSpan sweep_span = SpanIf(ctx, Phase::kSweepPass);

  ResultWriter writer(out);
  TEMPO_ASSIGN_OR_RETURN(CoSweepStats sweep,
                         CoSweep(layout, sorted, options.buffer_pages,
                                 options.predicate, nullptr, &writer));
  TEMPO_RETURN_IF_ERROR(writer.Finish());

  JoinRunStats stats;
  stats.output_tuples = writer.count();
  stats.Set(Metric::kSortIoOps, static_cast<double>(sorted.io.total_ops()));
  stats.Set(Metric::kJoinPredicateMask,
            static_cast<double>(options.predicate.mask()));
  stats.Set(Metric::kSweepActivePeak, static_cast<double>(sweep.active_peak));
  stats.Set(Metric::kActiveBucketEntriesPeak,
            static_cast<double>(sweep.bucket_entries_peak));
  stats.Set(Metric::kSweepAppends, static_cast<double>(sweep.appends));
  stats.Set(Metric::kSweepCompactions, static_cast<double>(sweep.compactions));
  stats.Set(Metric::kSweepProbeHits, static_cast<double>(sweep.probe_visits));
  return stats;
}

}  // namespace tempo
