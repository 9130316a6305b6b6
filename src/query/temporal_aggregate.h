#ifndef TEMPO_QUERY_TEMPORAL_AGGREGATE_H_
#define TEMPO_QUERY_TEMPORAL_AGGREGATE_H_

#include <vector>

#include "common/statusor.h"
#include "relation/schema.h"
#include "relation/tuple.h"

namespace tempo {

/// Temporal aggregation: the aggregate of the tuples valid at each
/// instant, reported as maximal intervals over which its value is
/// constant. (The paper's simulations credit "the aggregation tree
/// implementation" [Kline & Snodgrass] for exactly this computation; we
/// implement it with an equivalent endpoint sweep — coverage is
/// piecewise constant between interval endpoints, so the sweep visits
/// each distinct endpoint once.)
///
/// Example: COUNT over {[0,4], [2,6]} is (1)@[0,1], (2)@[2,4], (1)@[5,6].
///
/// As in SQL, kSum/kMin/kMax skip tuples whose aggregated value is NULL
/// (e.g. the padded side of an outer-join result), so a stretch covered
/// only by NULLs yields no row; kCount counts every tuple.
enum class AggregateFn {
  kCount,  ///< number of valid tuples
  kSum,    ///< sum of an int64 attribute over valid tuples
  kMin,    ///< minimum of an int64 attribute over valid tuples
  kMax,    ///< maximum of an int64 attribute over valid tuples
};

const char* AggregateFnName(AggregateFn fn);

/// Options for TemporalAggregate.
struct AggregationSpec {
  AggregateFn fn = AggregateFn::kCount;
  /// Attribute position aggregated over (must be int64). Ignored for
  /// kCount.
  size_t value_attr = 0;
  /// Attribute positions to group by; one output series per group.
  std::vector<size_t> group_by;
};

/// Computes the temporal aggregate of `tuples` under `schema`.
/// Returns the output schema (group-by attributes + "<fn>" int64 column)
/// and the result tuples: for each group (groups in Value order of their
/// group-by values, NULL equal to NULL), one tuple per maximal interval
/// of constant aggregate value, ascending in time. Instants covered by
/// no tuple of a group produce no output (COUNT never reports 0).
///
/// O((n + distinct endpoints) log n) per group via an endpoint sweep
/// with a multiset of active values (for kMin/kMax) or a running
/// count/sum.
StatusOr<std::pair<Schema, std::vector<Tuple>>> TemporalAggregate(
    const Schema& schema, const std::vector<Tuple>& tuples,
    const AggregationSpec& spec);

}  // namespace tempo

#endif  // TEMPO_QUERY_TEMPORAL_AGGREGATE_H_
