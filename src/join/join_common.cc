#include "join/join_common.h"

#include <cstring>

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

namespace {

/// Sets bit `out` + k of the NULL bitmap at `bitmap` for each NULL
/// positions[k] of `v`; returns the output index after the last one.
size_t MarkNulls(const TupleView& v, const std::vector<size_t>& positions,
                 size_t out, char* bitmap) {
  for (size_t pos : positions) {
    if (v.is_null(pos)) bitmap[out / 8] |= static_cast<char>(1u << (out % 8));
    ++out;
  }
  return out;
}

}  // namespace

Status ResultWriter::Emit(const NaturalJoinLayout& layout, const TupleView& x,
                          const TupleView& y, const Interval& overlap) {
  // The wire format of Tuple::SerializeTo: interval, NULL bitmap, then
  // the non-NULL payloads in output-attribute order (A, B, C).
  const RecordLayout& out_layout = layout.output.layout();
  // One piece per source run; an empty (all-NULL) piece adds nothing, and
  // a piece whose bytes continue the previous one merges into it.
  runs_.clear();
  size_t size = out_layout.values_offset;
  for (const NaturalJoinLayout::SourceRun& run : layout.output_runs) {
    const std::string_view piece =
        (run.from_r ? x : y).PayloadRun(run.begin, run.end);
    if (piece.empty()) continue;
    size += piece.size();
    if (!runs_.empty() &&
        runs_.back().data() + runs_.back().size() == piece.data()) {
      runs_.back() = std::string_view(runs_.back().data(),
                                      runs_.back().size() + piece.size());
    } else {
      runs_.push_back(piece);
    }
  }
  TEMPO_ASSIGN_OR_RETURN(char* const dst, out_->ReserveRecord(size));

  const uint64_t bounds[2] = {static_cast<uint64_t>(overlap.start()),
                              static_cast<uint64_t>(overlap.end())};
  std::memcpy(dst, bounds, sizeof(bounds));
  char* bitmap = dst + RecordLayout::kBitmapOffset;
  std::memset(bitmap, 0, out_layout.bitmap_bytes);
  size_t i = MarkNulls(x, layout.r_join_attrs, 0, bitmap);
  i = MarkNulls(x, layout.r_rest, i, bitmap);
  MarkNulls(y, layout.s_rest, i, bitmap);
  char* p = dst + out_layout.values_offset;
  for (std::string_view run : runs_) {
    std::memcpy(p, run.data(), run.size());
    p += run.size();
  }
  TEMPO_DCHECK(p == dst + size);
  TEMPO_DCHECK(TupleView::Make(out_layout, dst, size).ok());
  ++count_;
  return Status::OK();
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
