#ifndef TEMPO_ALGEBRA_TEMPORAL_JOINS_H_
#define TEMPO_ALGEBRA_TEMPORAL_JOINS_H_

#include <vector>

#include "common/statusor.h"
#include "relation/schema.h"
#include "relation/tuple.h"

namespace tempo {

/// Contain-semijoin [LM92]: the r tuples whose interval contains the
/// interval of at least one key-matching s tuple. In-memory operator;
/// result tuples keep r's schema and timestamps.
StatusOr<std::vector<Tuple>> ContainSemiJoin(const Schema& r_schema,
                                             const std::vector<Tuple>& r,
                                             const Schema& s_schema,
                                             const std::vector<Tuple>& s);

}  // namespace tempo

#endif  // TEMPO_ALGEBRA_TEMPORAL_JOINS_H_
