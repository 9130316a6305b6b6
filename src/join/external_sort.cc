#include "join/external_sort.h"

#include <algorithm>
#include <deque>
#include <queue>

namespace tempo {

namespace {

bool ViewVsLess(const TupleView& a, const TupleView& b) {
  return IntervalStartLess()(a.interval(), b.interval());
}

/// One memory-sized chunk of input pinned as views: run formation sorts
/// the views by (Vs, Ve), stably, and writes the raw record bytes back.
struct ViewChunk {
  PageTupleArena arena;
  std::vector<TupleView> views;

  void Clear() {
    arena.Clear();
    views.clear();
  }

  Status Load(StoredRelation* input, uint32_t first_page, uint32_t end_page) {
    Clear();
    for (uint32_t p = first_page; p < end_page; ++p) {
      TEMPO_ASSIGN_OR_RETURN(PagePin page, input->PinPage(p));
      TEMPO_RETURN_IF_ERROR(
          arena.AddPage(input->schema(), std::move(page)).status());
    }
    views = arena.views();
    return Status::OK();
  }

  Status WriteRun(StoredRelation* run) const {
    for (const TupleView& v : views) {
      TEMPO_RETURN_IF_ERROR(run->AppendRecord(v.record()));
    }
    return run->Flush();
  }
};

/// Reads one run (a Vs-sorted relation) through a multi-page input buffer:
/// each refill pins `buffer_pages` consecutive pages into the reader's
/// arena (1 random + (c-1) sequential I/Os) and hands out views over them.
class RunReader {
 public:
  RunReader(StoredRelation* run, uint32_t buffer_pages)
      : run_(run), buffer_pages_(buffer_pages == 0 ? 1 : buffer_pages) {}

  /// Fetches a view of the next record, valid until the following call
  /// (which may refill the arena); returns false at end of run.
  StatusOr<bool> Next(TupleView* out) {
    if (pos_ >= arena_.views().size()) {
      TEMPO_RETURN_IF_ERROR(Refill());
      if (arena_.views().empty()) return false;
    }
    *out = arena_.views()[pos_++];
    return true;
  }

 private:
  Status Refill() {
    arena_.Clear();
    pos_ = 0;
    const uint32_t end =
        std::min(next_page_ + buffer_pages_, run_->num_pages());
    for (; next_page_ < end; ++next_page_) {
      TEMPO_ASSIGN_OR_RETURN(PagePin page, run_->PinPage(next_page_));
      TEMPO_RETURN_IF_ERROR(
          arena_.AddPage(run_->schema(), std::move(page)).status());
    }
    return Status::OK();
  }

  StoredRelation* run_;
  uint32_t buffer_pages_;
  uint32_t next_page_ = 0;
  PageTupleArena arena_;
  size_t pos_ = 0;
};

/// Merges `runs` into `out`, writing each record's bytes as they are.
/// Buffer budget: each input run and the output each get
/// buffer_pages / (runs + 1) pages (at least 1).
Status MergeRuns(const std::vector<TempRelation>& runs, uint32_t buffer_pages,
                 StoredRelation* out) {
  uint32_t per_stream =
      std::max<uint32_t>(1, buffer_pages / (static_cast<uint32_t>(runs.size()) + 1));
  std::deque<RunReader> readers;  // each pins its pages: not movable
  for (const auto& run : runs) readers.emplace_back(run.get(), per_stream);

  struct HeapEntry {
    TupleView view;
    size_t stream;
  };
  auto heap_greater = [](const HeapEntry& a, const HeapEntry& b) {
    return ViewVsLess(b.view, a.view);
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      decltype(heap_greater)>
      heap(heap_greater);

  for (size_t i = 0; i < readers.size(); ++i) {
    TupleView v;
    TEMPO_ASSIGN_OR_RETURN(bool more, readers[i].Next(&v));
    if (more) heap.push(HeapEntry{v, i});
  }

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    // Append before advancing the stream: its Next() may clear the arena
    // the popped view points into.
    TEMPO_RETURN_IF_ERROR(out->AppendRecord(top.view.record()));
    TupleView next;
    TEMPO_ASSIGN_OR_RETURN(bool more, readers[top.stream].Next(&next));
    if (more) heap.push(HeapEntry{next, top.stream});
  }
  return out->Flush();
}

}  // namespace

StatusOr<SortedRelation> ExternalSortByVs(StoredRelation* input,
                                          uint32_t buffer_pages,
                                          const std::string& output_name,
                                          Scheduler* /*ignored*/) {
  if (buffer_pages < 3) {
    return Status::InvalidArgument("external sort needs at least 3 pages");
  }
  if (input->HasUnflushedAppends()) {
    return Status::FailedPrecondition("input must be flushed before sorting");
  }
  Disk* disk = input->disk();
  auto temp_relation = [&](const std::string& name) {
    return TempRelation(new StoredRelation(disk, input->schema(), name));
  };

  uint32_t pages = input->num_pages();

  // Whole input fits in memory: one read pass, sort the views in place,
  // one write pass of the raw record bytes.
  if (pages <= buffer_pages) {
    ViewChunk all;
    TEMPO_RETURN_IF_ERROR(all.Load(input, 0, pages));
    std::stable_sort(all.views.begin(), all.views.end(), ViewVsLess);
    SortedRelation result;
    result.relation = temp_relation(output_name);
    TEMPO_RETURN_IF_ERROR(all.WriteRun(result.relation.get()));
    return result;
  }

  // --- Run formation: memory-sized sorted runs. -----------------------
  std::vector<TempRelation> runs;
  ViewChunk chunk;
  for (uint32_t start = 0; start < pages; start += buffer_pages) {
    uint32_t end = std::min(pages, start + buffer_pages);
    TEMPO_RETURN_IF_ERROR(chunk.Load(input, start, end));
    std::stable_sort(chunk.views.begin(), chunk.views.end(), ViewVsLess);
    runs.push_back(
        temp_relation(output_name + ".run" + std::to_string(runs.size())));
    TEMPO_RETURN_IF_ERROR(chunk.WriteRun(runs.back().get()));
  }

  SortedRelation result;
  result.relation = temp_relation(output_name);
  if (runs.empty()) return result;

  // --- Merge passes until one fan-in suffices. -------------------------
  // Fan-in: with F input streams plus one output stream each getting at
  // least one page, F <= buffer_pages - 1. Each group's run files are
  // deleted as soon as it is merged.
  const uint32_t max_fanin = buffer_pages - 1;
  uint32_t pass = 0;
  while (runs.size() > max_fanin) {
    std::vector<TempRelation> next_runs;
    for (size_t i = 0; i < runs.size(); i += max_fanin) {
      size_t end = std::min(runs.size(), i + max_fanin);
      std::vector<TempRelation> group;
      for (size_t j = i; j < end; ++j) group.push_back(std::move(runs[j]));
      next_runs.push_back(temp_relation(
          output_name + ".pass" + std::to_string(pass) + "." +
          std::to_string(next_runs.size())));
      TEMPO_RETURN_IF_ERROR(
          MergeRuns(group, buffer_pages, next_runs.back().get()));
    }
    runs = std::move(next_runs);
    ++pass;
  }

  // --- Final merge produces the output. --------------------------------
  TEMPO_RETURN_IF_ERROR(MergeRuns(runs, buffer_pages, result.relation.get()));
  return result;
}

StatusOr<SortedInputs> SortInputsByVs(StoredRelation* r, StoredRelation* s,
                                      uint32_t buffer_pages, ExecContext* ctx) {
  IoAccountant& acct = r->disk()->accountant();
  const IoStats before = acct.stats();
  SortedInputs sorted;
  {
    TraceSpan sort_span = SpanIf(ctx, Phase::kSortR);
    TEMPO_ASSIGN_OR_RETURN(
        sorted.r, ExternalSortByVs(r, buffer_pages, r->name() + ".sorted"));
  }
  {
    TraceSpan sort_span = SpanIf(ctx, Phase::kSortS);
    TEMPO_ASSIGN_OR_RETURN(
        sorted.s, ExternalSortByVs(s, buffer_pages, s->name() + ".sorted"));
  }
  sorted.io = acct.stats() - before;
  return sorted;
}

}  // namespace tempo
