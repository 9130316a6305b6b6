#include "obs/explain.h"

#include <algorithm>

#include "obs/exec_options.h"
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

namespace tempo {

namespace {

std::string FormatDouble(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string FormatValue(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return FormatDouble(v, 0);
  }
  return FormatDouble(v, 3);
}

struct Row {
  std::vector<std::string> cells;
};

/// Stable render order for siblings: phase enum order, then label, so a
/// tree renders the same whatever order its siblings were begun in.
std::vector<const SpanNode*> SortedChildren(const SpanNode& node) {
  std::vector<const SpanNode*> out;
  out.reserve(node.children.size());
  for (const auto& child : node.children) out.push_back(child.get());
  std::sort(out.begin(), out.end(), [](const SpanNode* a, const SpanNode* b) {
    if (a->phase != b->phase) return a->phase < b->phase;
    return a->label < b->label;
  });
  return out;
}

void RenderNode(const SpanNode& node, int depth, const ExplainOptions& options,
                std::vector<Row>* rows) {
  Row row;
  std::string name(2 * depth, ' ');
  name += PhaseName(node.phase);
  if (!node.label.empty()) {
    name += " [";
    name += node.label;
    name += "]";
  }
  row.cells.push_back(std::move(name));

  const IoStats inclusive = node.InclusiveIo();
  row.cells.push_back(node.estimated_cost < 0.0
                          ? "-"
                          : FormatDouble(node.estimated_cost, 1));
  row.cells.push_back(FormatDouble(inclusive.Cost(options.cost_model), 1));
  row.cells.push_back(FormatDouble(inclusive.total_random(), 0));
  row.cells.push_back(FormatDouble(inclusive.total_sequential(), 0));
  if (options.include_timing) {
    row.cells.push_back(FormatDouble(node.stats.wall_seconds * 1e3, 2));
  }
  rows->push_back(std::move(row));

  for (const SpanNode* child : SortedChildren(node)) {
    RenderNode(*child, depth + 1, options, rows);
  }
}

std::string FormatBytes(double bytes) {
  if (bytes >= 1024.0 * 1024.0) {
    return FormatDouble(bytes / (1024.0 * 1024.0), 1) + " MiB";
  }
  if (bytes >= 1024.0) return FormatDouble(bytes / 1024.0, 1) + " KiB";
  return FormatDouble(bytes, 0) + " B";
}

/// The "physical path" line: which executor actually ran, with the
/// footprint-vs-budget numbers behind the radix-vs-paged decision. A
/// mid-extract fallback renders as paged-grace with the radix abort noted,
/// so fallback decisions are debuggable from the EXPLAIN output alone.
std::string PhysicalPathLine(const MetricsRegistry& metrics) {
  if (!metrics.Has(Metric::kPlannedAlgorithm)) return "";
  const int algo = static_cast<int>(metrics.Get(Metric::kPlannedAlgorithm));
  const bool fallback = metrics.Get(Metric::kRadixFallback) == 1.0;
  static const char* kNames[] = {"nested-loops", "sort-merge", "paged-grace",
                                 "in-memory-radix"};
  std::string line = "physical path: ";
  if (algo == 3 && fallback) {
    line += "paged-grace (radix fallback: budget exceeded mid-extract)";
  } else if (algo >= 0 && algo < 4) {
    line += kNames[algo];
  } else {
    line += "?";
  }
  if (metrics.Has(Metric::kRadixEstFootprintBytes)) {
    line += " — footprint est " +
            FormatBytes(metrics.Get(Metric::kRadixEstFootprintBytes));
    if (metrics.Has(Metric::kRadixActFootprintBytes)) {
      line += " / act " +
              FormatBytes(metrics.Get(Metric::kRadixActFootprintBytes));
    }
    if (metrics.Has(Metric::kRadixBudgetBytes)) {
      line +=
          ", budget " + FormatBytes(metrics.Get(Metric::kRadixBudgetBytes));
    }
  }
  line += "\n";
  return line;
}

/// Names the sequenced join variant when the run evaluated one beyond the
/// default inner join, so EXPLAIN output states up front that unmatched
/// uncovered subintervals were part of the result.
std::string JoinKindLine(const MetricsRegistry& metrics) {
  if (!metrics.Has(Metric::kSequencedJoinKind)) return "";
  const int kind = static_cast<int>(metrics.Get(Metric::kSequencedJoinKind));
  if (kind == 0) return "";  // inner: the default, not worth a line
  return std::string("join kind: ") +
         JoinKindName(static_cast<JoinKind>(kind)) + "\n";
}

std::string AlignRows(const std::vector<Row>& rows) {
  std::vector<size_t> widths;
  for (const Row& row : rows) {
    if (widths.size() < row.cells.size()) widths.resize(row.cells.size(), 0);
    for (size_t i = 0; i < row.cells.size(); ++i) {
      widths[i] = std::max(widths[i], row.cells[i].size());
    }
  }
  std::ostringstream out;
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.cells.size(); ++i) {
      const std::string& cell = row.cells[i];
      if (i == 0) {
        // Phase column: left-aligned.
        out << cell;
        if (i + 1 < row.cells.size()) {
          out << std::string(widths[i] - cell.size(), ' ');
        }
      } else {
        out << "  " << std::string(widths[i] - cell.size(), ' ') << cell;
      }
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace

std::string ExplainAnalyze(const ExecContext& ctx,
                           const ExplainOptions& options) {
  const SpanNode& root = ctx.tracer().root();

  std::vector<Row> rows;
  Row header;
  header.cells = {"phase", "est cost", "act cost", "random", "seq"};
  if (options.include_timing) {
    header.cells.push_back("wall ms");
  }
  rows.push_back(std::move(header));

  for (const SpanNode* child : SortedChildren(root)) {
    RenderNode(*child, 0, options, &rows);
  }

  // TOTAL: the tree's inclusive I/O. When every phase of the run executed
  // under a span this equals the run's charged IoStats exactly.
  const IoStats total = root.InclusiveIo();
  Row total_row;
  total_row.cells = {"TOTAL", "-", FormatDouble(total.Cost(options.cost_model), 1),
                     FormatDouble(total.total_random(), 0),
                     FormatDouble(total.total_sequential(), 0)};
  if (options.include_timing) {
    double wall = 0.0;
    for (const auto& child : root.children) {
      wall += child->stats.wall_seconds;
    }
    total_row.cells.push_back(FormatDouble(wall * 1e3, 2));
  }
  rows.push_back(std::move(total_row));

  std::ostringstream out;
  out << PhysicalPathLine(ctx.metrics());
  out << JoinKindLine(ctx.metrics());
  out << AlignRows(rows);

  if (ctx.metrics().size() > 0) {
    out << "\nmetrics:\n";
    ctx.metrics().ForEach([&out](const MetricDef& def, double value) {
      out << "  " << def.name << " = " << FormatValue(value) << " ("
          << def.unit << ")\n";
    });
  }
  return out.str();
}

}  // namespace tempo
