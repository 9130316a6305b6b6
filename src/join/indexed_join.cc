#include <algorithm>

#include "join/append_only_tree.h"
#include "join/external_sort.h"
#include "join/flat_index.h"
#include "join/join_common.h"

namespace tempo {

// Declared in service/executor_bodies.h; runs under RunJoinContract.
StatusOr<JoinRunStats> IndexedBody(const NaturalJoinLayout& layout,
                                   StoredRelation* r, StoredRelation* s,
                                   StoredRelation* out,
                                   const ExecOptions& options,
                                   ExecContext* ctx) {
  Disk* disk = r->disk();
  IoAccountant& acct = disk->accountant();
  TraceSpan exec_span = SpanIf(ctx, Phase::kIndexed);

  // Sort both inputs by Vs; build the append-only tree over the inner.
  TEMPO_ASSIGN_OR_RETURN(
      SortedInputs sorted,
      SortInputsByVs(r, s, options.buffer_pages, ctx));
  IoStats sort_end = acct.stats();
  StatusOr<std::unique_ptr<AppendOnlyTree>> tree_or =
      Status::Internal("unset");
  {
    TraceSpan build_span = SpanIf(ctx, Phase::kIndexBuild);
    tree_or = AppendOnlyTree::Build(sorted.s.relation.get(), s->name());
  }
  TEMPO_RETURN_IF_ERROR(tree_or.status());
  std::unique_ptr<AppendOnlyTree> tree = std::move(tree_or).value();
  IoStats build_end = acct.stats();
  TraceSpan probe_span = SpanIf(ctx, Phase::kIndexProbe);

  // Buffer split: a few pages cache index nodes, the rest cache inner
  // data pages; one page streams the outer, one holds the result. The
  // caches are declared after `sorted` and `tree`, so they drop their pins
  // before those files are deleted and the frames go back to the disk.
  const uint32_t node_pages = std::max<uint32_t>(2, tree->height() + 1);
  PagePinLru nodes(disk, node_pages);
  PagePinLru data(disk, options.buffer_pages > node_pages + 2
                            ? options.buffer_pages - node_pages - 2
                            : 1);

  ResultWriter writer(out);
  uint64_t inner_pages_scanned = 0;
  const RecordLayout& s_view_layout = sorted.s.relation->schema().layout();
  const int64_t widen = tree->max_duration();

  ColumnExtractor outer(&sorted.r.relation->schema(), &layout.r_join_attrs);
  FlatIndex probe;
  std::vector<TupleView> views;  // the pinned inner page's records
  // An empty inner matches nothing and leaves an empty index.
  const uint32_t r_pages =
      tree->num_data_pages() == 0 ? 0 : sorted.r.relation->num_pages();
  const uint32_t s_pages = sorted.s.relation->num_pages();
  for (uint32_t rp = 0; rp < r_pages; ++rp) {
    TEMPO_ASSIGN_OR_RETURN(PagePin r_page, sorted.r.relation->PinPage(rp));
    outer.Clear();
    TEMPO_RETURN_IF_ERROR(outer.AddPage(std::move(r_page)).status());
    if (outer.num_rows() == 0) continue;
    probe.Build(outer, 0, outer.num_rows());
    // The inner range this outer page can match: tuples with
    // Vs in [min Vs - maxDuration, max Ve].
    Chronon lo = outer.start(0);
    Chronon hi = outer.end(0);
    for (size_t row = 1; row < outer.num_rows(); ++row) {
      lo = std::min(lo, outer.start(row));
      hi = std::max(hi, outer.end(row));
    }
    Chronon lo_bound =
        lo > kChrononMin + widen ? lo - widen : kChrononMin;
    TEMPO_ASSIGN_OR_RETURN(uint32_t first,
                           tree->LowerBoundPage(lo_bound, &nodes));
    TEMPO_ASSIGN_OR_RETURN(uint32_t last,
                           tree->UpperBoundPage(hi, &nodes));
    if (last >= s_pages) last = s_pages - 1;
    for (uint32_t sp = first; sp <= last && sp < s_pages; ++sp) {
      TEMPO_ASSIGN_OR_RETURN(PagePin page,
                             data.Pin(sorted.s.relation->file_id(), sp));
      ++inner_pages_scanned;
      // Probe records in place off the pinned page through the probe
      // kernel; `page` keeps it pinned until the kernel is done with its
      // views. A corrupt record fails the run after the records before it
      // are joined.
      views.clear();
      Status status = AppendPageViews(s_view_layout, *page, &views);
      const Status probed = ProbeFlatIndex(
          outer, probe, views.size(),
          [&](size_t i) {
            return FlatProbe::Of(views[i], layout.s_join_attrs);
          },
          layout.s_join_attrs, options.predicate, /*dedup=*/nullptr,
          [&](size_t i, size_t row, const Interval& common) {
            return writer.Emit(layout, outer.view(row), views[i], common);
          });
      if (!probed.ok()) status = probed;
      TEMPO_RETURN_IF_ERROR(status);
    }
  }
  TEMPO_RETURN_IF_ERROR(writer.Finish());

  JoinRunStats stats;
  stats.output_tuples = writer.count();
  stats.Set(Metric::kIndexNodePages,
            static_cast<double>(tree->num_node_pages()));
  stats.Set(Metric::kIndexBuildIoOps,
            static_cast<double>((build_end - sort_end).total_ops()));
  stats.Set(Metric::kSortIoOps, static_cast<double>(sorted.io.total_ops()));
  stats.Set(Metric::kInnerPagesScanned,
            static_cast<double>(inner_pages_scanned));
  return stats;
}

}  // namespace tempo
