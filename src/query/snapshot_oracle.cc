#include "query/snapshot_oracle.h"

#include <algorithm>
#include <limits>
#include <string>

#include "join/join_common.h"
#include "join/reference_join.h"

namespace tempo {

StatusOr<Schema> DeriveQuerySchema(const QueryNode& node) {
  switch (node.op) {
    case QueryOp::kScan:
      if (node.scan == nullptr) {
        return Status::InvalidArgument("scan node has no relation");
      }
      return node.scan->schema();
    case QueryOp::kSelect:
      return DeriveQuerySchema(*node.children[0]);
    case QueryOp::kProject: {
      TEMPO_ASSIGN_OR_RETURN(Schema in, DeriveQuerySchema(*node.children[0]));
      std::vector<Attribute> attrs;
      for (const std::string& name : node.project_attrs) {
        auto pos = in.IndexOf(name);
        if (!pos.has_value()) {
          return Status::InvalidArgument("project: no attribute named '" +
                                         name + "' in " + in.ToString());
        }
        attrs.push_back(in.attribute(*pos));
      }
      return Schema::Make(std::move(attrs));
    }
    case QueryOp::kJoin: {
      TEMPO_ASSIGN_OR_RETURN(Schema l, DeriveQuerySchema(*node.children[0]));
      TEMPO_ASSIGN_OR_RETURN(Schema r, DeriveQuerySchema(*node.children[1]));
      if (node.join_kind == JoinKind::kAnti) return l;
      TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(l, r));
      return layout.output;
    }
    case QueryOp::kDifference: {
      TEMPO_ASSIGN_OR_RETURN(Schema l, DeriveQuerySchema(*node.children[0]));
      TEMPO_ASSIGN_OR_RETURN(Schema r, DeriveQuerySchema(*node.children[1]));
      if (!(l == r)) {
        return Status::InvalidArgument(
            "difference requires union-compatible inputs: " + l.ToString() +
            " vs " + r.ToString());
      }
      return l;
    }
  }
  return Status::InvalidArgument("unknown query operator");
}

namespace {

/// Nontemporal natural-join row assembly at chronon t, including the
/// NULL-padded unmatched rows of the outer kinds. Every row in `l` and
/// `r` is already a timeslice row ([t, t]); the overlap of two such rows
/// is always [t, t], so MakeJoinTuple/MakeUnmatchedTuple reduce to plain
/// nontemporal assembly.
StatusOr<std::vector<Tuple>> SnapshotJoin(const NaturalJoinLayout& layout,
                                          const std::vector<Tuple>& l,
                                          const std::vector<Tuple>& r,
                                          JoinKind kind, Chronon t) {
  const Interval at(t, t);
  std::vector<Tuple> out;
  std::vector<bool> r_matched(r.size(), false);
  for (const Tuple& x : l) {
    bool matched = false;
    for (size_t j = 0; j < r.size(); ++j) {
      const Tuple& y = r[j];
      if (!x.EqualOnAttrs(layout.r_join_attrs, layout.s_join_attrs, y)) {
        continue;
      }
      matched = true;
      r_matched[j] = true;
      if (kind != JoinKind::kAnti) {
        out.push_back(MakeJoinTuple(layout, x, y, at));
      }
    }
    if (matched) continue;
    if (kind == JoinKind::kAnti) {
      out.push_back(MakeAntiTuple(x, at));
    } else if (kind == JoinKind::kLeftOuter || kind == JoinKind::kFullOuter) {
      out.push_back(MakeUnmatchedTuple(layout, /*preserved_is_r=*/true, x, at));
    }
  }
  if (kind == JoinKind::kFullOuter) {
    for (size_t j = 0; j < r.size(); ++j) {
      if (r_matched[j]) continue;
      out.push_back(
          MakeUnmatchedTuple(layout, /*preserved_is_r=*/false, r[j], at));
    }
  }
  return out;
}

}  // namespace

StatusOr<std::vector<Tuple>> SnapshotEval(const QueryNode& node, Chronon t) {
  const Interval at(t, t);
  switch (node.op) {
    case QueryOp::kScan: {
      if (node.scan == nullptr) {
        return Status::InvalidArgument("scan node has no relation");
      }
      TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> all, node.scan->ReadAll());
      return Timeslice(all, t);
    }
    case QueryOp::kSelect: {
      TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> in,
                             SnapshotEval(*node.children[0], t));
      TEMPO_ASSIGN_OR_RETURN(Schema schema,
                             DeriveQuerySchema(*node.children[0]));
      auto pos = schema.IndexOf(node.predicate.attr);
      if (!pos.has_value()) {
        return Status::InvalidArgument("select: no attribute named '" +
                                       node.predicate.attr + "' in " +
                                       schema.ToString());
      }
      std::vector<Tuple> out;
      for (const Tuple& x : in) {
        if (EvalAttrPredicate(node.predicate, x.value(*pos))) {
          out.push_back(x);
        }
      }
      return out;
    }
    case QueryOp::kProject: {
      TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> in,
                             SnapshotEval(*node.children[0], t));
      TEMPO_ASSIGN_OR_RETURN(Schema schema,
                             DeriveQuerySchema(*node.children[0]));
      std::vector<size_t> positions;
      for (const std::string& name : node.project_attrs) {
        auto pos = schema.IndexOf(name);
        if (!pos.has_value()) {
          return Status::InvalidArgument("project: no attribute named '" +
                                         name + "' in " + schema.ToString());
        }
        positions.push_back(*pos);
      }
      std::vector<Tuple> out;
      for (const Tuple& x : in) {
        std::vector<Value> values;
        values.reserve(positions.size());
        for (size_t pos : positions) values.push_back(x.value(pos));
        out.emplace_back(std::move(values), at);
      }
      return out;
    }
    case QueryOp::kJoin: {
      if (!node.join_predicate.IsOverlapDefault()) {
        return Status::InvalidArgument(
            "snapshot oracle: join predicate '" + node.join_predicate.Name() +
            "' is not snapshot reducible (Allen relations other than the "
            "overlap disjunction constrain whole intervals, not any single "
            "chronon's snapshot)");
      }
      TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> l,
                             SnapshotEval(*node.children[0], t));
      TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> r,
                             SnapshotEval(*node.children[1], t));
      TEMPO_ASSIGN_OR_RETURN(Schema ls, DeriveQuerySchema(*node.children[0]));
      TEMPO_ASSIGN_OR_RETURN(Schema rs, DeriveQuerySchema(*node.children[1]));
      TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(ls, rs));
      return SnapshotJoin(layout, l, r, node.join_kind, t);
    }
    case QueryOp::kDifference: {
      TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> l,
                             SnapshotEval(*node.children[0], t));
      TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> r,
                             SnapshotEval(*node.children[1], t));
      // NOT EXISTS semantics, matching the per-tuple sequenced
      // difference: an l row survives iff no value-equivalent r row is
      // valid at t; surviving duplicates all survive.
      std::vector<Tuple> out;
      for (const Tuple& x : l) {
        bool covered = false;
        for (const Tuple& y : r) {
          if (x.values() == y.values()) {
            covered = true;
            break;
          }
        }
        if (!covered) out.push_back(x);
      }
      return out;
    }
  }
  return Status::InvalidArgument("unknown query operator");
}

StatusOr<std::pair<Chronon, Chronon>> BaseChrononRange(const QueryNode& node) {
  Chronon lo = std::numeric_limits<Chronon>::max();
  Chronon hi = std::numeric_limits<Chronon>::min();
  if (node.op == QueryOp::kScan) {
    if (node.scan == nullptr) {
      return Status::InvalidArgument("scan node has no relation");
    }
    TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> all, node.scan->ReadAll());
    for (const Tuple& x : all) {
      lo = std::min(lo, x.interval().start());
      hi = std::max(hi, x.interval().end());
    }
  }
  for (const auto& child : node.children) {
    TEMPO_ASSIGN_OR_RETURN(auto range, BaseChrononRange(*child));
    if (range.first <= range.second) {
      lo = std::min(lo, range.first + 1);
      hi = std::max(hi, range.second - 1);
    }
  }
  if (lo > hi) return std::make_pair(Chronon{0}, Chronon{-1});
  return std::make_pair(lo - 1, hi + 1);
}

Status CheckSnapshotReducible(const QueryNode& plan,
                              const std::vector<Tuple>& result, Chronon lo,
                              Chronon hi) {
  for (Chronon t = lo; t <= hi; ++t) {
    const std::vector<Tuple> sliced = Timeslice(result, t);
    TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> expected, SnapshotEval(plan, t));
    if (!SameTupleMultiset(sliced, expected)) {
      return Status::FailedPrecondition(
          "snapshot reducibility violated at chronon " + std::to_string(t) +
          ": timeslice has " + std::to_string(sliced.size()) +
          " rows, nontemporal evaluation has " +
          std::to_string(expected.size()));
    }
  }
  return Status::OK();
}

}  // namespace tempo
