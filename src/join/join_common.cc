#include "join/join_common.h"

#include <algorithm>

namespace tempo {

Tuple MakeJoinTuple(const NaturalJoinLayout& layout, const Tuple& x,
                    const Tuple& y, const Interval& overlap) {
  std::vector<Value> values;
  values.reserve(layout.output.num_attributes());
  for (size_t pos : layout.r_join_attrs) values.push_back(x.value(pos));
  for (size_t pos : layout.r_rest) values.push_back(x.value(pos));
  for (size_t pos : layout.s_rest) values.push_back(y.value(pos));
  return Tuple(std::move(values), overlap);
}

Tuple MakeJoinTuple(const NaturalJoinLayout& layout, const Tuple& x,
                    const TupleView& y, const Interval& overlap) {
  std::vector<Value> values;
  values.reserve(layout.output.num_attributes());
  for (size_t pos : layout.r_join_attrs) values.push_back(x.value(pos));
  for (size_t pos : layout.r_rest) values.push_back(x.value(pos));
  for (size_t pos : layout.s_rest) values.push_back(y.ValueAt(pos));
  return Tuple(std::move(values), overlap);
}

Tuple MakeUnmatchedTuple(const NaturalJoinLayout& layout, bool preserved_is_r,
                         const Tuple& x, const Interval& uncovered) {
  std::vector<Value> values;
  values.reserve(layout.output.num_attributes());
  if (preserved_is_r) {
    for (size_t pos : layout.r_join_attrs) values.push_back(x.value(pos));
    for (size_t pos : layout.r_rest) values.push_back(x.value(pos));
    for (size_t i = 0; i < layout.s_rest.size(); ++i) {
      values.push_back(Value::Null());  // C attributes: NULL
    }
  } else {
    for (size_t pos : layout.s_join_attrs) values.push_back(x.value(pos));
    for (size_t i = 0; i < layout.r_rest.size(); ++i) {
      values.push_back(Value::Null());  // B attributes: NULL
    }
    for (size_t pos : layout.s_rest) values.push_back(x.value(pos));
  }
  return Tuple(std::move(values), uncovered);
}

Tuple MakeAntiTuple(const Tuple& x, const Interval& uncovered) {
  return Tuple(x.values(), uncovered);
}

void AppendJoinRecord(const NaturalJoinLayout& layout, const TupleView& x,
                      const TupleView& y, const Interval& overlap,
                      std::string* out) {
  // The wire format of Tuple::SerializeTo: interval, NULL bitmap, then
  // the non-NULL payloads in output-attribute order (A, B, C).
  const uint64_t bounds[2] = {static_cast<uint64_t>(overlap.start()),
                              static_cast<uint64_t>(overlap.end())};
  out->append(reinterpret_cast<const char*>(bounds), sizeof(bounds));
  const size_t bitmap_pos = out->size();
  out->append((layout.output.num_attributes() + 7) / 8, '\0');
  size_t i = 0;
  auto copy = [&](const TupleView& v, size_t pos) {
    if (v.is_null(pos)) {
      (*out)[bitmap_pos + i / 8] |= static_cast<char>(1u << (i % 8));
    } else {
      out->append(v.PayloadBytesAt(pos));
    }
    ++i;
  };
  for (size_t pos : layout.r_join_attrs) copy(x, pos);
  for (size_t pos : layout.r_rest) copy(x, pos);
  for (size_t pos : layout.s_rest) copy(y, pos);
}

Status ResultWriter::Emit(const NaturalJoinLayout& layout, const TupleView& x,
                          const TupleView& y, const Interval& overlap) {
  record_.clear();
  AppendJoinRecord(layout, x, y, overlap, &record_);
  return EmitSerialized(record_);
}

Status ResultWriter::EmitSerialized(std::string_view record) {
  if (canonical_) {
    buffered_.emplace_back(record);
  } else {
    TEMPO_RETURN_IF_ERROR(out_->AppendRecord(record));
  }
  ++count_;
  return Status::OK();
}

Status ResultWriter::Finish() {
  if (canonical_) {
    std::sort(buffered_.begin(), buffered_.end());
    for (const std::string& record : buffered_) {
      TEMPO_RETURN_IF_ERROR(out_->AppendRecord(record));
    }
    buffered_.clear();
  }
  return out_->Flush();
}

HashedTupleIndex::HashedTupleIndex(const std::vector<Tuple>* tuples,
                                   const std::vector<size_t>* key_attrs)
    : tuples_(tuples), key_attrs_(key_attrs) {
  Rebuild(tuples);
}

void HashedTupleIndex::Rebuild(const std::vector<Tuple>* tuples) {
  tuples_ = tuples;
  buckets_.clear();
  buckets_.reserve(tuples_->size());
  for (size_t i = 0; i < tuples_->size(); ++i) {
    buckets_.emplace((*tuples_)[i].HashAttrs(*key_attrs_), i);
  }
}

StatusOr<NaturalJoinLayout> PrepareJoinForKind(StoredRelation* r,
                                               StoredRelation* s,
                                               StoredRelation* out,
                                               JoinKind kind) {
  if (r == nullptr || s == nullptr || out == nullptr) {
    return Status::InvalidArgument("join inputs must be non-null");
  }
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         DeriveNaturalJoinLayout(r->schema(), s->schema()));
  const Schema& expected = JoinOutputSchema(r->schema(), layout, kind);
  if (!(out->schema() == expected)) {
    return Status::InvalidArgument(
        std::string(JoinKindName(kind)) + " join output schema " +
        out->schema().ToString() + " does not match the schema it produces " +
        expected.ToString());
  }
  if (r->HasUnflushedAppends() || s->HasUnflushedAppends()) {
    return Status::FailedPrecondition(
        "input relations must be flushed before joining");
  }
  return layout;
}

}  // namespace tempo
