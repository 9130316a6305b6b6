#include "incremental/materialized_view.h"

#include <functional>

#include "join/flat_index.h"
#include "relation/column_extract.h"
#include "relation/tuple_view.h"

namespace tempo {

namespace {

/// Pins the visible pages of one side of a partition — its partition
/// file, then its cache file — one at a time, in that order.
Status ForEachVisiblePage(StoredRelation* part, StoredRelation* cache,
                          const std::function<Status(PagePin)>& fn) {
  for (StoredRelation* rel : {part, cache}) {
    for (uint32_t p = 0; p < rel->num_pages(); ++p) {
      TEMPO_ASSIGN_OR_RETURN(PagePin page, rel->PinPage(p));
      TEMPO_RETURN_IF_ERROR(fn(std::move(page)));
    }
  }
  return Status::OK();
}

/// Streams the records of those pages as zero-copy views.
Status ForEachVisibleView(StoredRelation* part, StoredRelation* cache,
                          const std::function<Status(const TupleView&)>& fn) {
  TEMPO_RETURN_IF_ERROR(part->ForEachView(fn));
  return cache->ForEachView(fn);
}

}  // namespace

MaterializedVtJoinView::MaterializedVtJoinView(Disk* disk, std::string name)
    : disk_(disk), name_(std::move(name)) {
  TEMPO_CHECK(disk != nullptr);
}

Status MaterializedVtJoinView::Build(StoredRelation* r, StoredRelation* s,
                                     uint32_t buffer_pages, uint64_t seed,
                                     ExecContext* ctx) {
  if (built_) return Status::FailedPrecondition("view already built");
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&disk_->accountant());
  }
  TraceSpan build_span = SpanIf(ctx, Phase::kViewBuild);
  TEMPO_ASSIGN_OR_RETURN(layout_,
                         DeriveNaturalJoinLayout(r->schema(), s->schema()));

  // Plan the partitioning (sampling charged, as in the join itself).
  PartitionJoinOptions plan_options;
  plan_options.buffer_pages = buffer_pages;
  plan_options.seed = seed;
  TEMPO_ASSIGN_OR_RETURN(PartitionPlan plan,
                         PlanPartitions(r, plan_options, ctx));
  spec_ = plan.spec;
  const size_t n = spec_.num_partitions();

  auto init_side = [&](Side& side, const Schema& schema,
                       std::vector<size_t>* keys, const char* tag) {
    side.schema = schema;
    side.keys = keys;
    for (size_t i = 0; i < n; ++i) {
      side.parts.emplace_back(new StoredRelation(
          disk_, schema, name_ + "." + tag + ".part" + std::to_string(i)));
      side.caches.emplace_back(new StoredRelation(
          disk_, schema, name_ + "." + tag + ".cache" + std::to_string(i)));
    }
  };
  init_side(r_side_, r->schema(), &layout_.r_join_attrs, "r");
  init_side(s_side_, s->schema(), &layout_.s_join_attrs, "s");
  for (size_t i = 0; i < n; ++i) {
    results_.emplace_back(new StoredRelation(
        disk_, layout_.output, name_ + ".result" + std::to_string(i)));
  }

  // Load base contents: last-overlap placement plus persistent caches for
  // every earlier overlapped partition.
  auto load = [&](Side& side, StoredRelation* input) -> Status {
    TEMPO_RETURN_IF_ERROR(input->ForEachView([&](const TupleView& v) {
      const size_t first = spec_.FirstOverlapping(v.interval());
      const size_t last = spec_.LastOverlapping(v.interval());
      TEMPO_RETURN_IF_ERROR(side.parts[last]->AppendRecord(v.record()));
      for (size_t i = first; i < last; ++i) {
        TEMPO_RETURN_IF_ERROR(side.caches[i]->AppendRecord(v.record()));
      }
      return Status::OK();
    }));
    for (auto& p : side.parts) TEMPO_RETURN_IF_ERROR(p->Flush());
    for (auto& c : side.caches) TEMPO_RETURN_IF_ERROR(c->Flush());
    return Status::OK();
  };
  TEMPO_RETURN_IF_ERROR(load(r_side_, r));
  TEMPO_RETURN_IF_ERROR(load(s_side_, s));

  built_ = true;
  for (size_t i = 0; i < n; ++i) {
    TEMPO_RETURN_IF_ERROR(RecomputePartitionResult(i));
  }
  return Status::OK();
}

Status MaterializedVtJoinView::RecomputePartitionResult(size_t i) {
  result_tuples_ -= results_[i]->num_tuples();
  TEMPO_RETURN_IF_ERROR(results_[i]->Clear());
  ColumnExtractor area(&r_side_.schema, &layout_.r_join_attrs);
  TEMPO_RETURN_IF_ERROR(ForEachVisiblePage(
      r_side_.parts[i].get(), r_side_.caches[i].get(),
      [&](PagePin page) { return area.AddPage(std::move(page)).status(); }));
  FlatIndex index;
  index.Build(area, 0, area.num_rows());
  const Interval& p_i = spec_.partition(i);
  const TemporalPredicate overlap;
  ResultWriter writer(results_[i].get());
  // Probe: s streams page by page through the probe kernel, as views into
  // the pinned page; a pair is emitted only in the partition where its
  // overlap ends (the exactly-once rule).
  const RecordLayout& s_layout = s_side_.schema.layout();
  std::vector<TupleView> views;
  TEMPO_RETURN_IF_ERROR(ForEachVisiblePage(
      s_side_.parts[i].get(), s_side_.caches[i].get(),
      [&](PagePin page) -> Status {
        views.clear();
        const Status made = AppendPageViews(s_layout, *page, &views);
        TEMPO_RETURN_IF_ERROR(ProbeFlatIndex(
            area, index, views.size(),
            [&](size_t v) {
              return FlatProbe::Of(views[v], layout_.s_join_attrs);
            },
            layout_.s_join_attrs, overlap, &p_i,
            [&](size_t v, size_t row, const Interval& common) {
              return writer.Emit(layout_, area.view(row), views[v], common);
            }));
        return made;
      }));
  TEMPO_RETURN_IF_ERROR(writer.Finish());
  result_tuples_ += results_[i]->num_tuples();
  return Status::OK();
}

Status MaterializedVtJoinView::InsertInto(Side& side, Side& other,
                                          bool side_is_r, const Tuple& t,
                                          UpdateStats* stats) {
  if (!built_) return Status::FailedPrecondition("view not built");
  size_t first = spec_.FirstOverlapping(t.interval());
  size_t last = spec_.LastOverlapping(t.interval());
  stats->partitions_touched = last - first + 1;

  // Store: last-overlap partition plus the earlier caches.
  TEMPO_RETURN_IF_ERROR(side.parts[last]->Append(t));
  TEMPO_RETURN_IF_ERROR(side.parts[last]->Flush());
  for (size_t i = first; i < last; ++i) {
    TEMPO_RETURN_IF_ERROR(side.caches[i]->Append(t));
    TEMPO_RETURN_IF_ERROR(side.caches[i]->Flush());
  }

  // Delta join: t against the opposite side of each overlapped partition;
  // the exactly-once rule localizes each new pair to one partition.
  std::string record;
  t.SerializeTo(side.schema, &record);
  TEMPO_ASSIGN_OR_RETURN(
      const TupleView x,
      TupleView::Make(side.schema.layout(), record.data(), record.size()));
  for (size_t i = first; i <= last; ++i) {
    const Interval& p_i = spec_.partition(i);
    ResultWriter writer(results_[i].get());
    Status status = ForEachVisibleView(
        other.parts[i].get(), other.caches[i].get(),
        [&](const TupleView& y) -> Status {
          if (!x.EqualOnAttrs(*side.keys, *other.keys, y)) return Status::OK();
          auto common = Overlap(x.interval(), y.interval());
          if (!common || !p_i.Contains(common->end())) return Status::OK();
          return side_is_r ? writer.Emit(layout_, x, y, *common)
                           : writer.Emit(layout_, y, x, *common);
        });
    // Results appended before a failure are in the view; count them.
    stats->result_delta += writer.count();
    result_tuples_ += writer.count();
    TEMPO_RETURN_IF_ERROR(status);
    TEMPO_RETURN_IF_ERROR(writer.Finish());
  }
  return Status::OK();
}

StatusOr<bool> MaterializedVtJoinView::RemoveTuple(StoredRelation* rel,
                                                   const Tuple& t) {
  TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> all, rel->ReadAll());
  bool removed = false;
  std::vector<Tuple> kept;
  kept.reserve(all.size());
  for (Tuple& existing : all) {
    if (!removed && existing == t) {
      removed = true;
      continue;
    }
    kept.push_back(std::move(existing));
  }
  if (!removed) return false;
  TEMPO_RETURN_IF_ERROR(rel->Clear());
  TEMPO_RETURN_IF_ERROR(rel->AppendAll(kept));
  return true;
}

Status MaterializedVtJoinView::DeleteFrom(Side& side, const Tuple& t,
                                          UpdateStats* stats) {
  if (!built_) return Status::FailedPrecondition("view not built");
  size_t first = spec_.FirstOverlapping(t.interval());
  size_t last = spec_.LastOverlapping(t.interval());
  stats->partitions_touched = last - first + 1;

  TEMPO_ASSIGN_OR_RETURN(bool removed, RemoveTuple(side.parts[last].get(), t));
  if (!removed) return Status::NotFound("tuple not in view: " + t.ToString());
  for (size_t i = first; i < last; ++i) {
    TEMPO_ASSIGN_OR_RETURN(bool cache_removed,
                           RemoveTuple(side.caches[i].get(), t));
    if (!cache_removed) {
      return Status::Internal("cache out of sync with partition storage");
    }
  }
  // Partition-local recomputation (Section 3.1).
  for (size_t i = first; i <= last; ++i) {
    TEMPO_RETURN_IF_ERROR(RecomputePartitionResult(i));
    stats->result_delta += results_[i]->num_tuples();
  }
  return Status::OK();
}

StatusOr<MaterializedVtJoinView::UpdateStats> MaterializedVtJoinView::Update(
    bool insert, bool side_is_r, const Tuple& t, ExecContext* ctx) {
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&disk_->accountant());
  }
  UpdateStats stats;
  IoStats before = disk_->accountant().stats();
  TraceSpan span = SpanIf(ctx, insert ? Phase::kViewInsert : Phase::kViewDelete,
                          side_is_r ? "r" : "s");
  Side& side = side_is_r ? r_side_ : s_side_;
  Side& other = side_is_r ? s_side_ : r_side_;
  TEMPO_RETURN_IF_ERROR(insert ? InsertInto(side, other, side_is_r, t, &stats)
                               : DeleteFrom(side, t, &stats));
  stats.io = disk_->accountant().stats() - before;
  return stats;
}

StatusOr<MaterializedVtJoinView::UpdateStats> MaterializedVtJoinView::InsertR(
    const Tuple& t, ExecContext* ctx) {
  return Update(/*insert=*/true, /*side_is_r=*/true, t, ctx);
}

StatusOr<MaterializedVtJoinView::UpdateStats> MaterializedVtJoinView::InsertS(
    const Tuple& t, ExecContext* ctx) {
  return Update(/*insert=*/true, /*side_is_r=*/false, t, ctx);
}

StatusOr<MaterializedVtJoinView::UpdateStats> MaterializedVtJoinView::DeleteR(
    const Tuple& t, ExecContext* ctx) {
  return Update(/*insert=*/false, /*side_is_r=*/true, t, ctx);
}

StatusOr<MaterializedVtJoinView::UpdateStats> MaterializedVtJoinView::DeleteS(
    const Tuple& t, ExecContext* ctx) {
  return Update(/*insert=*/false, /*side_is_r=*/false, t, ctx);
}

StatusOr<std::vector<Tuple>> MaterializedVtJoinView::ReadResult() {
  if (!built_) return Status::FailedPrecondition("view not built");
  std::vector<Tuple> all;
  for (auto& part : results_) {
    TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> chunk, part->ReadAll());
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

}  // namespace tempo
