#ifndef TEMPO_QUERY_QUERY_PLAN_H_
#define TEMPO_QUERY_QUERY_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/exec_options.h"
#include "relation/value.h"
#include "storage/stored_relation.h"

namespace tempo {

/// Comparison operators of the structured selection predicate.
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// A structured attribute-op-literal predicate over a tuple's explicit
/// values. Restricting selections to this form keeps every pipeline
/// snapshot reducible by construction: the predicate never inspects the
/// timestamp, so selecting then timeslicing equals timeslicing then
/// selecting. (Timestamp conditions — Allen predicates — belong to join
/// nodes as a TemporalPredicate, outside snapshot reducibility.)
struct AttrPredicate {
  std::string attr;
  CompareOp op = CompareOp::kEq;
  Value literal;
};

/// Evaluates `pred`'s comparison against attribute value `v`. NULL
/// semantics follow SQL's UNKNOWN-is-false: a NULL on either side fails
/// every comparison, including equality between two NULLs. (Join *keys*
/// use plain Value equality, where NULL == NULL matches — the executor
/// and the snapshot oracle share both primitives, so they always agree.)
bool EvalAttrPredicate(const AttrPredicate& pred, const Value& v);

/// Operators of the sequenced temporal query layer. Every operator is
/// change preserving: each output interval derives from a subinterval of
/// exactly one input tuple per operator — nothing is coalesced — so
/// lineage survives the pipeline and timeslicing the result at any
/// chronon t equals running the nontemporal operator tree over the
/// inputs timesliced at t (snapshot reducibility).
enum class QueryOp : uint8_t { kScan, kSelect, kProject, kJoin, kDifference };

const char* QueryOpName(QueryOp op);

/// One node of a sequenced query plan. Built through QueryPlan; consumed
/// by RunSequencedQuery (sequenced_exec.h) and by the snapshot oracle
/// (snapshot_oracle.h).
struct QueryNode {
  QueryOp op = QueryOp::kScan;

  /// kScan: the base relation (borrowed; must outlive the plan).
  StoredRelation* scan = nullptr;

  /// kSelect.
  AttrPredicate predicate;

  /// kProject: attribute names to keep, in output order.
  std::vector<std::string> project_attrs;

  /// kJoin: which sequenced variant (inner / left-outer / full-outer /
  /// anti).
  JoinKind join_kind = JoinKind::kInner;

  /// kJoin: the temporal predicate the join evaluates (default: the
  /// overlap disjunction). Non-default predicates are inner-only —
  /// ValidateExecOptions rejects the combination otherwise — and take the
  /// plan outside snapshot reducibility (the snapshot oracle refuses
  /// them: a during/meets match is a property of whole intervals, not of
  /// any single chronon's snapshot).
  TemporalPredicate join_predicate;

  /// kSelect/kProject: one child. kJoin/kDifference: two (left, right).
  std::vector<std::unique_ptr<QueryNode>> children;
};

/// Composable value-semantics builder for sequenced SPJ pipelines:
///
///   QueryPlan plan = QueryPlan::Join(
///       QueryPlan::Scan(&emp).Select({"dept", CompareOp::kEq, Value("r&d")}),
///       QueryPlan::Scan(&proj),
///       JoinKind::kLeftOuter)
///     .Project({"name", "title"});
///
/// The builder owns the node tree; base relations are borrowed.
class QueryPlan {
 public:
  static QueryPlan Scan(StoredRelation* rel);
  static QueryPlan Join(QueryPlan left, QueryPlan right,
                        JoinKind kind = JoinKind::kInner);
  /// Predicate-qualified inner join node, e.g.
  /// `QueryPlan::Join(std::move(l), std::move(r),
  ///                  TemporalPredicate::Exactly(AllenRelation::kDuring))`.
  static QueryPlan Join(QueryPlan left, QueryPlan right,
                        TemporalPredicate predicate);
  /// Union-compatible sequenced set difference left -ᵗ right.
  static QueryPlan Difference(QueryPlan left, QueryPlan right);

  QueryPlan Select(AttrPredicate pred) &&;
  QueryPlan Project(std::vector<std::string> attrs) &&;

  const QueryNode& root() const { return *root_; }

 private:
  QueryPlan() = default;
  std::unique_ptr<QueryNode> root_;
};

}  // namespace tempo

#endif  // TEMPO_QUERY_QUERY_PLAN_H_
