#include "join/nested_loop_join.h"

#include "join/flat_index.h"

namespace tempo {

// Declared in service/executor_bodies.h; runs under RunJoinContract.
StatusOr<JoinRunStats> NestedLoopBody(const NaturalJoinLayout& layout,
                                      StoredRelation* r, StoredRelation* s,
                                      StoredRelation* out,
                                      const ExecOptions& options,
                                      ExecContext* ctx) {
  TraceSpan span = SpanIf(ctx, Phase::kNestedLoop);

  const uint32_t block_pages = options.buffer_pages - 2;
  const uint32_t pages_r = r->num_pages();
  const uint32_t pages_s = s->num_pages();

  ResultWriter writer(out);
  uint64_t blocks = 0;
  const RecordLayout& s_layout = s->schema().layout();

  ColumnExtractor block(&r->schema(), &layout.r_join_attrs);
  FlatIndex index;
  std::vector<TupleView> views;  // the inner page's records
  for (uint32_t block_start = 0; block_start < pages_r;
       block_start += block_pages) {
    ++blocks;
    uint32_t block_end = block_start + block_pages;
    if (block_end > pages_r) block_end = pages_r;

    // Load the outer block (1 random + (k-1) sequential reads).
    block.Clear();
    for (uint32_t p = block_start; p < block_end; ++p) {
      TEMPO_ASSIGN_OR_RETURN(PagePin page, r->PinPage(p));
      TEMPO_RETURN_IF_ERROR(block.AddPage(std::move(page)).status());
    }
    index.Build(block, 0, block.num_rows());

    // Scan the inner relation through one page buffer, probing its
    // records in place off the page through the probe kernel; results are
    // assembled from the two records' bytes. A corrupt record fails the
    // run after the records before it are joined.
    for (uint32_t p = 0; p < pages_s; ++p) {
      TEMPO_ASSIGN_OR_RETURN(PagePin page, s->PinPage(p));
      views.clear();
      const Status made = AppendPageViews(s_layout, *page, &views);
      TEMPO_RETURN_IF_ERROR(ProbeFlatIndex(
          block, index, views.size(),
          [&](size_t i) {
            return FlatProbe::Of(views[i], layout.s_join_attrs);
          },
          layout.s_join_attrs, options.predicate, /*dedup=*/nullptr,
          [&](size_t i, size_t row, const Interval& common) {
            return writer.Emit(layout, block.view(row), views[i], common);
          }));
      TEMPO_RETURN_IF_ERROR(made);
    }
  }
  TEMPO_RETURN_IF_ERROR(writer.Finish());

  JoinRunStats stats;
  stats.output_tuples = writer.count();
  stats.Set(Metric::kOuterBlocks, static_cast<double>(blocks));
  return stats;
}

double NestedLoopAnalyticCost(uint32_t pages_r, uint32_t pages_s,
                              uint32_t buffer_pages, const CostModel& model,
                              HeadModel head_model) {
  TEMPO_CHECK(buffer_pages >= 3);
  if (pages_r == 0) return 0.0;
  uint32_t block_pages = buffer_pages - 2;
  uint64_t blocks = (pages_r + block_pages - 1) / block_pages;
  uint64_t inner_random = pages_s > 0 ? blocks : 0;
  uint64_t inner_seq = pages_s > 0 ? blocks * (pages_s - 1) : 0;
  if (head_model == HeadModel::kPerFile) {
    // The outer blocks form one continuous pass over r.
    return model.Cost(1 + inner_random, (pages_r - 1) + inner_seq);
  }
  // Single head: every outer block and every inner scan reseeks.
  return model.Cost(blocks + inner_random, (pages_r - blocks) + inner_seq);
}

}  // namespace tempo
