#ifndef TEMPO_OBS_EXPLAIN_H_
#define TEMPO_OBS_EXPLAIN_H_

#include <string>

#include "obs/exec_context.h"
#include "storage/io_accountant.h"

namespace tempo {

/// Rendering knobs for ExplainAnalyze.
struct ExplainOptions {
  /// Weights used for the "act cost" column (inclusive charged I/O priced
  /// like the planner prices it, so est and act are comparable).
  CostModel cost_model = CostModel::Ratio(5.0);

  /// When false, the wall-clock column is omitted.
  /// I/O columns are deterministic from run to run, timing is not —
  /// golden tests set this to false so two runs of the same join render
  /// identical text.
  bool include_timing = true;
};

/// Renders the span tree as an EXPLAIN ANALYZE table: one row per phase,
/// indented by nesting, with planner-estimated cost next to the actual
/// (inclusive) charged-I/O cost, the random/sequential split and — unless
/// include_timing is off — a wall-clock column. Sibling
/// rows are ordered by (phase, label), not begin order, so trees built by
/// concurrent threads render deterministically. Ends with a TOTAL row
/// whose I/O equals the tree's inclusive I/O (== the run's charged
/// IoStats when every phase ran under a span), followed by the metrics
/// registry, one `name = value` line per set metric.
std::string ExplainAnalyze(const ExecContext& ctx,
                           const ExplainOptions& options = {});

}  // namespace tempo

#endif  // TEMPO_OBS_EXPLAIN_H_
