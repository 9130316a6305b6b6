#include "relation/tuple_view.h"

namespace tempo {

namespace {

/// Walks one attribute's payload starting at `pos`; returns false on a
/// short buffer. On success `*len` holds the payload bytes (strings:
/// excluding the 4-byte length prefix) and `pos` is advanced past it.
bool WalkAttr(ValueType type, bool null, const char* data, size_t size,
              uint32_t* pos, uint32_t* len) {
  if (null) {
    *len = 0;
    return true;
  }
  switch (type) {
    case ValueType::kInt64:
    case ValueType::kDouble:
      if (size - *pos < 8) return false;
      *len = 8;
      *pos += 8;
      return true;
    case ValueType::kString: {
      if (size - *pos < 4) return false;
      uint32_t slen;
      std::memcpy(&slen, data + *pos, 4);
      *pos += 4;
      if (size - *pos < slen) return false;
      *len = slen;
      *pos += slen;
      return true;
    }
  }
  return false;
}

}  // namespace

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

TupleView::Extent TupleView::ExtentOf(size_t i) const {
  TEMPO_DCHECK(i < layout_->num_attributes);
  if (is_null(i)) return Extent{0, 0, true};
  uint32_t pos = PayloadOffset(i);
  uint32_t len = 0;
  bool ok = WalkAttr(layout_->types[i], false, data_, size_, &pos, &len);
  TEMPO_DCHECK(ok);
  (void)ok;
  // `pos` is now past attribute i's payload of `len` bytes.
  return Extent{pos - len, len, false};
}

int64_t TupleView::Int64At(size_t i) const {
  TEMPO_DCHECK(layout_->types[i] == ValueType::kInt64);
  Extent e = ExtentOf(i);
  TEMPO_DCHECK(!e.null);
  uint64_t bits;
  std::memcpy(&bits, data_ + e.offset, 8);
  return static_cast<int64_t>(bits);
}

double TupleView::DoubleAt(size_t i) const {
  TEMPO_DCHECK(layout_->types[i] == ValueType::kDouble);
  Extent e = ExtentOf(i);
  TEMPO_DCHECK(!e.null);
  double d;
  std::memcpy(&d, data_ + e.offset, 8);
  return d;
}

std::string_view TupleView::StringAt(size_t i) const {
  TEMPO_DCHECK(layout_->types[i] == ValueType::kString);
  Extent e = ExtentOf(i);
  TEMPO_DCHECK(!e.null);
  return std::string_view(data_ + e.offset, e.length);
}

std::string_view TupleView::PayloadBytesAt(size_t i) const {
  Extent e = ExtentOf(i);
  if (e.null) return {};
  if (layout_->types[i] == ValueType::kString) {
    return std::string_view(data_ + e.offset - 4, e.length + 4);
  }
  return std::string_view(data_ + e.offset, e.length);
}

uint32_t TupleView::PayloadOffset(size_t i) const {
  TEMPO_DCHECK(i <= layout_->num_attributes);
  if (i == layout_->num_attributes) return size_;
  if (no_nulls_ && i <= layout_->first_var_attr) {
    return layout_->values_offset + 8 * static_cast<uint32_t>(i);
  }
  uint32_t pos = layout_->values_offset;
  uint32_t len = 0;
  for (size_t a = 0; a < i; ++a) {
    bool ok = WalkAttr(layout_->types[a], is_null(a), data_, size_, &pos,
                       &len);
    TEMPO_DCHECK(ok);
    (void)ok;
  }
  return pos;
}

std::string_view TupleView::PayloadRun(size_t begin, size_t end) const {
  TEMPO_DCHECK(begin <= end);
  uint32_t pos = PayloadOffset(begin);
  const uint32_t first = pos;
  if (end == layout_->num_attributes) {
    pos = size_;
  } else {
    uint32_t len = 0;
    for (size_t a = begin; a < end; ++a) {
      bool ok = WalkAttr(layout_->types[a], is_null(a), data_, size_, &pos,
                         &len);
      TEMPO_DCHECK(ok);
      (void)ok;
    }
  }
  return std::string_view(data_ + first, pos - first);
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

size_t TupleView::HashAttr(size_t i) const {
  if (is_null(i)) return Value::HashNull();
  switch (layout_->types[i]) {
    case ValueType::kInt64:
      return Value::HashInt64(Int64At(i));
    case ValueType::kDouble:
      return Value::HashDouble(DoubleAt(i));
    case ValueType::kString:
      return Value::HashString(StringAt(i));
  }
  return Value::HashNull();
}

size_t TupleView::HashAttrs(const std::vector<size_t>& positions) const {
  size_t h = kAttrHashSeed;
  for (size_t pos : positions) h = MixAttrHash(h, HashAttr(pos));
  return h;
}

bool TupleView::EqualOnAttrs(const std::vector<size_t>& mine,
                             const std::vector<size_t>& theirs,
                             const TupleView& other) const {
  TEMPO_DCHECK(mine.size() == theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    size_t a = mine[i];
    size_t b = theirs[i];
    bool a_null = is_null(a);
    if (a_null != other.is_null(b)) return false;
    if (a_null) continue;  // NULL == NULL, as for owning Values
    ValueType t = layout_->types[a];
    if (t != other.layout_->types[b]) return false;
    switch (t) {
      case ValueType::kInt64:
        if (Int64At(a) != other.Int64At(b)) return false;
        break;
      case ValueType::kDouble:
        if (DoubleAt(a) != other.DoubleAt(b)) return false;
        break;
      case ValueType::kString:
        if (StringAt(a) != other.StringAt(b)) return false;
        break;
    }
  }
  return true;
}

}  // namespace tempo
