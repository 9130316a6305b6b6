#include "relation/tuple_view.h"

namespace tempo {

StatusOr<TupleView> TupleView::Make(const RecordLayout& layout,
                                    const char* data, size_t size) {
  if (size < RecordLayout::kBitmapOffset) {
    return Status::Corruption("record too short for interval");
  }
  TupleView view;
  view.layout_ = &layout;
  view.data_ = data;
  view.size_ = static_cast<uint32_t>(size);
  if (view.LoadChronon(0) > view.LoadChronon(8)) {
    return Status::Corruption("record has invalid interval");
  }
  if (size < layout.values_offset) {
    return Status::Corruption("record too short for null bitmap");
  }
  bool any_null = false;
  for (uint32_t b = 0; b < layout.bitmap_bytes; ++b) {
    any_null |= data[RecordLayout::kBitmapOffset + b] != 0;
  }
  // Padding bits past the last attribute must be zero (round-trip
  // canonicality).
  for (size_t bit = layout.num_attributes; bit < layout.bitmap_bytes * 8;
       ++bit) {
    if ((data[RecordLayout::kBitmapOffset + bit / 8] >> (bit % 8)) & 1) {
      return Status::Corruption("null bitmap has nonzero padding bits");
    }
  }
  view.no_nulls_ = !any_null;
  // One validation walk over the payloads.
  uint32_t pos = layout.values_offset;
  for (uint32_t i = 0; i < layout.num_attributes; ++i) {
    uint32_t len;
    if (!WalkAttr(layout.types[i], view.is_null(i), data, size, &pos, &len)) {
      return Status::Corruption("record too short for attribute payload");
    }
  }
  if (pos != size) {
    return Status::Corruption("record has trailing bytes");
  }
  return view;
}

TupleView TupleView::Trusted(const RecordLayout& layout, const char* data,
                             size_t size) {
#ifndef NDEBUG
  auto checked = Make(layout, data, size);
  TEMPO_DCHECK(checked.ok());
  return *checked;
#else
  TupleView view;
  view.layout_ = &layout;
  view.data_ = data;
  view.size_ = static_cast<uint32_t>(size);
  bool any_null = false;
  for (uint32_t b = 0; b < layout.bitmap_bytes; ++b) {
    any_null |= data[RecordLayout::kBitmapOffset + b] != 0;
  }
  view.no_nulls_ = !any_null;
  return view;
#endif
}

Value TupleView::ValueAt(size_t i) const {
  if (is_null(i)) return Value::Null();
  switch (layout_->types[i]) {
    case ValueType::kInt64:
      return Value(Int64At(i));
    case ValueType::kDouble:
      return Value(DoubleAt(i));
    case ValueType::kString:
      return Value(std::string(StringAt(i)));
  }
  return Value::Null();
}

Tuple TupleView::Materialize() const {
  std::vector<Value> values;
  values.reserve(layout_->num_attributes);
  for (size_t i = 0; i < layout_->num_attributes; ++i) {
    values.push_back(ValueAt(i));
  }
  return Tuple(std::move(values), interval());
}

}  // namespace tempo
