#include "algebra/temporal_joins.h"

namespace tempo {

StatusOr<std::vector<Tuple>> ContainSemiJoin(const Schema& r_schema,
                                             const std::vector<Tuple>& r,
                                             const Schema& s_schema,
                                             const std::vector<Tuple>& s) {
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         DeriveNaturalJoinLayout(r_schema, s_schema));
  std::vector<Tuple> out;
  for (const Tuple& x : r) {
    for (const Tuple& y : s) {
      if (x.EqualOnAttrs(layout.r_join_attrs, layout.s_join_attrs, y) &&
          x.interval().Contains(y.interval())) {
        out.push_back(x);
        break;
      }
    }
  }
  return out;
}

}  // namespace tempo
