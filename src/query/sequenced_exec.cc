#include "query/sequenced_exec.h"

#include <utility>
#include <vector>


namespace tempo {

namespace {

/// A node's materialized output: either a borrowed base relation (scan)
/// or an owned temporary, deleted when the parent is done consuming it.
struct Materialized {
  StoredRelation* rel = nullptr;
  TempRelation owned;  // null when borrowed
};

class SequencedExecutor {
 public:
  SequencedExecutor(Disk* disk, const QueryOptions& options, ExecContext* ctx,
                    const std::string& prefix)
      : disk_(disk), options_(options), ctx_(ctx), prefix_(prefix) {}

  StatusOr<Materialized> Run(const QueryNode& node) {
    switch (node.op) {
      case QueryOp::kScan:
        return RunScan(node);
      case QueryOp::kSelect:
        return RunSelect(node);
      case QueryOp::kProject:
        return RunProject(node);
      case QueryOp::kJoin:
        return RunJoinNode(node);
      case QueryOp::kDifference:
        return RunDifference(node);
    }
    return Status::InvalidArgument("unknown query operator");
  }

 private:
  /// A fresh temporary ("<prefix>.n<k>") for a node's output.
  Materialized NewTemp(const Schema& schema) {
    Materialized m;
    m.owned.reset(new StoredRelation(
        disk_, schema, prefix_ + ".n" + std::to_string(counter_++)));
    m.rel = m.owned.get();
    return m;
  }

  StatusOr<Materialized> RunScan(const QueryNode& node) {
    if (node.scan == nullptr) {
      return Status::InvalidArgument("scan node has no relation");
    }
    if (node.scan->HasUnflushedAppends()) {
      return Status::FailedPrecondition(
          "base relation " + node.scan->name() +
          " must be flushed before querying");
    }
    Materialized m;
    m.rel = node.scan;
    return m;
  }

  /// Streaming zero-copy filter: each page's records are viewed in place;
  /// passing records are appended verbatim, so a selected tuple's stored
  /// bytes are identical to its input bytes (trivially change preserving).
  StatusOr<Materialized> RunSelect(const QueryNode& node) {
    TEMPO_ASSIGN_OR_RETURN(Materialized in, Run(*node.children[0]));
    TraceSpan span = SpanIf(ctx_, Phase::kQuerySelect);
    const Schema& schema = in.rel->schema();
    auto pos = schema.IndexOf(node.predicate.attr);
    if (!pos.has_value()) {
      return Status::InvalidArgument("select: no attribute named '" +
                                     node.predicate.attr + "' in " +
                                     schema.ToString());
    }
    Materialized out = NewTemp(schema);
    TEMPO_RETURN_IF_ERROR(in.rel->ForEachView([&](const TupleView& v) {
      if (!EvalAttrPredicate(node.predicate, v.ValueAt(*pos))) {
        return Status::OK();
      }
      return out.rel->AppendRecord(v.record());
    }));
    TEMPO_RETURN_IF_ERROR(out.rel->Flush());
    return out;
  }

  /// Change-preserving projection: keeps the named attributes (in the
  /// given order) and the interval of every input tuple, duplicates and
  /// all. Deliberately no coalescing — merging value-equivalent rows
  /// would destroy per-tuple lineage; PartitionCoalesce does it on
  /// request.
  StatusOr<Materialized> RunProject(const QueryNode& node) {
    TEMPO_ASSIGN_OR_RETURN(Materialized in, Run(*node.children[0]));
    TraceSpan span = SpanIf(ctx_, Phase::kQueryProject);
    const Schema& schema = in.rel->schema();
    std::vector<size_t> positions;
    std::vector<Attribute> attrs;
    positions.reserve(node.project_attrs.size());
    for (const std::string& name : node.project_attrs) {
      auto pos = schema.IndexOf(name);
      if (!pos.has_value()) {
        return Status::InvalidArgument("project: no attribute named '" +
                                       name + "' in " + schema.ToString());
      }
      positions.push_back(*pos);
      attrs.push_back(schema.attribute(*pos));
    }
    TEMPO_ASSIGN_OR_RETURN(Schema out_schema, Schema::Make(std::move(attrs)));
    Materialized out = NewTemp(out_schema);
    TEMPO_RETURN_IF_ERROR(in.rel->ForEachView([&](const TupleView& v) {
      std::vector<Value> values;
      values.reserve(positions.size());
      for (size_t pos : positions) values.push_back(v.ValueAt(pos));
      return out.rel->Append(Tuple(std::move(values), v.interval()));
    }));
    TEMPO_RETURN_IF_ERROR(out.rel->Flush());
    return out;
  }

  StatusOr<Materialized> RunJoinNode(const QueryNode& node) {
    TEMPO_ASSIGN_OR_RETURN(Materialized left, Run(*node.children[0]));
    TEMPO_ASSIGN_OR_RETURN(Materialized right, Run(*node.children[1]));
    TraceSpan span = SpanIf(ctx_, Phase::kQueryJoin);
    Schema out_schema;
    if (node.join_kind == JoinKind::kAnti) {
      out_schema = left.rel->schema();  // anti preserves r's own schema
    } else {
      TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(left.rel->schema(),
                                                     right.rel->schema()));
      out_schema = layout.output;
    }
    Materialized out = NewTemp(out_schema);
    JoinRequest req;
    req.From(left.rel, right.rel).Using(options_.executor);
    req.options = options_.join;
    req.options.join_kind = node.join_kind;
    req.options.predicate = node.join_predicate;
    TEMPO_RETURN_IF_ERROR(RunJoin(req, out.rel, ctx_).status());
    return out;
  }

  /// Union-compatible sequenced difference l -ᵗ r: the anti join l ▷ᵗ r
  /// with every attribute a join attribute. Each l tuple keeps the
  /// subintervals of its validity that no value-equivalent r tuple covers,
  /// one row each; duplicates in l each produce their own rows, and no two
  /// l tuples are ever merged (change preservation: bag semantics, no
  /// coalescing per value group). Always
  /// planned with kAuto: QueryOptions::executor names the executor for
  /// join nodes, and the planner sends the anti kind to the partition
  /// executor.
  StatusOr<Materialized> RunDifference(const QueryNode& node) {
    TEMPO_ASSIGN_OR_RETURN(Materialized left, Run(*node.children[0]));
    TEMPO_ASSIGN_OR_RETURN(Materialized right, Run(*node.children[1]));
    TraceSpan span = SpanIf(ctx_, Phase::kQueryDifference);
    if (!(left.rel->schema() == right.rel->schema())) {
      return Status::InvalidArgument(
          "difference requires union-compatible inputs: " +
          left.rel->schema().ToString() + " vs " +
          right.rel->schema().ToString());
    }
    Materialized out = NewTemp(left.rel->schema());
    JoinRequest req;
    req.From(left.rel, right.rel).Using(JoinExecutor::kAuto);
    req.options = options_.join;
    req.options.join_kind = JoinKind::kAnti;
    req.options.predicate = TemporalPredicate();
    TEMPO_RETURN_IF_ERROR(RunJoin(req, out.rel, ctx_).status());
    return out;
  }

  Disk* disk_;
  const QueryOptions& options_;
  ExecContext* ctx_;
  std::string prefix_;
  int counter_ = 0;
};

}  // namespace

StatusOr<QueryResult> RunSequencedQuery(const QueryPlan& plan, Disk* disk,
                                        const QueryOptions& options,
                                        ExecContext* ctx,
                                        const std::string& name_prefix) {
  if (disk == nullptr) {
    return Status::InvalidArgument("RunSequencedQuery needs a disk");
  }
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&disk->accountant());
  }
  TraceSpan query_span = SpanIf(ctx, Phase::kQuery);
  SequencedExecutor exec(disk, options, ctx, name_prefix);
  TEMPO_ASSIGN_OR_RETURN(Materialized m, exec.Run(plan.root()));
  QueryResult result;
  if (m.owned != nullptr) {
    result.relation = std::move(m.owned);
  } else {
    // Bare scan: materialize a copy so the caller always owns the result.
    TempRelation copy(
        new StoredRelation(disk, m.rel->schema(), name_prefix + ".n.root"));
    TEMPO_RETURN_IF_ERROR(m.rel->ForEachView(
        [&](const TupleView& v) { return copy->AppendRecord(v.record()); }));
    TEMPO_RETURN_IF_ERROR(copy->Flush());
    result.relation = std::move(copy);
  }
  result.output_tuples = result.relation->num_tuples();
  return result;
}

}  // namespace tempo
