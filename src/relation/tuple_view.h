#ifndef TEMPO_RELATION_TUPLE_VIEW_H_
#define TEMPO_RELATION_TUPLE_VIEW_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/assert.h"
#include "common/statusor.h"
#include "relation/record_layout.h"
#include "relation/tuple.h"
#include "temporal/interval.h"

namespace tempo {

/// A non-owning, zero-copy view of one serialized record.
///
/// Where a materialized Tuple holds a heap-allocated vector of variant
/// Values (one string allocation per string attribute), a TupleView
/// interprets the record bytes in place: interval access is two 8-byte
/// loads, fixed-width attributes in the no-NULL prefix are direct loads at
/// layout-constant offsets, and join-key hashing/equality run over the
/// record bytes without materializing anything. Hash and equality are
/// bit-compatible with Tuple::HashAttrs / Value::operator== (including
/// NULL == NULL and -0.0 == 0.0 for doubles), so views and owning tuples
/// can share one hash index.
///
/// Lifetime: a view borrows (a) the record bytes — usually a Page pinned in
/// a PageTupleArena — and (b) the RecordLayout cached on the Schema. It is
/// valid only while both outlive it; a view must never escape the phase
/// that owns its arena. Materialize() produces an owning Tuple at result
/// append and API boundaries.
class TupleView {
 public:
  TupleView() = default;

  /// Validates `size` bytes at `data` as one record of `layout` and
  /// returns a view over them: the one parser of the record format. It
  /// rejects a short buffer, an invalid interval (Vs > Ve), nonzero bitmap
  /// padding and trailing bytes with Corruption, in one allocation-free
  /// walk, so it accepts exactly the byte strings SerializeTo writes.
  static StatusOr<TupleView> Make(const RecordLayout& layout,
                                  const char* data, size_t size);

  /// Unchecked construction over bytes produced by SerializeTo (debug
  /// builds still validate). For records that never left this process.
  static TupleView Trusted(const RecordLayout& layout, const char* data,
                           size_t size);

  bool valid() const { return data_ != nullptr; }
  size_t num_values() const { return layout_->num_attributes; }
  const RecordLayout& layout() const { return *layout_; }

  /// The raw serialized record. Appending these bytes to a page reproduces
  /// the record exactly (serialization is canonical), which is what lets
  /// the Grace partitioner route records without re-encoding.
  std::string_view record() const { return {data_, size_}; }

  Interval interval() const {
    return Interval(LoadChronon(0), LoadChronon(8));
  }

  bool is_null(size_t i) const {
    return (data_[RecordLayout::kBitmapOffset + i / 8] >> (i % 8)) & 1;
  }

  /// Payload accessors; the attribute must be non-NULL and of the declared
  /// type (checked in debug builds).
  int64_t Int64At(size_t i) const;
  double DoubleAt(size_t i) const;
  std::string_view StringAt(size_t i) const;

  /// Attribute `i`'s serialized payload exactly as it sits in the record:
  /// 8 bytes for int64/double, the u32 length prefix plus the characters
  /// for a string, empty for NULL. Serialization is canonical, so copying
  /// these bytes into another record reproduces the attribute there.
  std::string_view PayloadBytesAt(size_t i) const;

  /// The serialized payloads of attributes [begin, end), which sit back to
  /// back in the record: the concatenation of PayloadBytesAt(i) over the
  /// range, found with at most one walk.
  std::string_view PayloadRun(size_t begin, size_t end) const;

  /// Materializes attribute `i` as an owning Value (allocates for
  /// strings). Result-append and API boundaries only.
  Value ValueAt(size_t i) const;

  /// Owning Tuple with the same values and interval.
  Tuple Materialize() const;

  /// Combined hash over attribute positions; equals HashAttrs of the
  /// materialized tuple.
  size_t HashAttrs(const std::vector<size_t>& positions) const;

  /// True iff this view and `other` agree on the aligned positions, with
  /// Value semantics (NULL == NULL, typed comparison for doubles).
  bool EqualOnAttrs(const std::vector<size_t>& mine,
                    const std::vector<size_t>& theirs,
                    const TupleView& other) const;

 private:
  struct Extent {
    uint32_t offset = 0;  // payload offset within the record
    uint32_t length = 0;  // payload bytes (strings: excludes the length u32)
    bool null = false;
  };

  /// Locates attribute `i`, through PayloadOffset.
  Extent ExtentOf(size_t i) const;

  /// Offset at which attribute `i`'s payload starts (the record size for
  /// i == num_values()). O(1) for i == 0 and, in a no-NULL record, for
  /// every attribute up to the first string; otherwise one forward walk
  /// over the preceding attributes.
  uint32_t PayloadOffset(size_t i) const;

  /// Walks one attribute's payload starting at `*pos` in the `size`
  /// bytes at `data`; returns false on a short buffer. On success `*len`
  /// holds the payload bytes (strings: excluding the 4-byte length
  /// prefix) and `*pos` is advanced past it.
  static bool WalkAttr(ValueType type, bool null, const char* data,
                       size_t size, uint32_t* pos, uint32_t* len);

  Chronon LoadChronon(size_t pos) const {
    uint64_t bits;
    std::memcpy(&bits, data_ + pos, 8);
    return static_cast<Chronon>(bits);
  }

  size_t HashAttr(size_t i) const;

  const RecordLayout* layout_ = nullptr;
  const char* data_ = nullptr;
  uint32_t size_ = 0;
  // True when the null bitmap is all-zero: every fixed-width attribute
  // before first_var_attr then sits at a layout-constant offset.
  bool no_nulls_ = false;
};

// The accessors the probe and emission loops call per match are defined
// here so they inline there; Make, Trusted, ValueAt and Materialize stay
// in tuple_view.cc.

inline bool TupleView::WalkAttr(ValueType type, bool null, const char* data,
                                size_t size, uint32_t* pos, uint32_t* len) {
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

inline TupleView::Extent TupleView::ExtentOf(size_t i) const {
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

inline int64_t TupleView::Int64At(size_t i) const {
  TEMPO_DCHECK(layout_->types[i] == ValueType::kInt64);
  Extent e = ExtentOf(i);
  TEMPO_DCHECK(!e.null);
  uint64_t bits;
  std::memcpy(&bits, data_ + e.offset, 8);
  return static_cast<int64_t>(bits);
}

inline double TupleView::DoubleAt(size_t i) const {
  TEMPO_DCHECK(layout_->types[i] == ValueType::kDouble);
  Extent e = ExtentOf(i);
  TEMPO_DCHECK(!e.null);
  double d;
  std::memcpy(&d, data_ + e.offset, 8);
  return d;
}

inline std::string_view TupleView::StringAt(size_t i) const {
  TEMPO_DCHECK(layout_->types[i] == ValueType::kString);
  Extent e = ExtentOf(i);
  TEMPO_DCHECK(!e.null);
  return std::string_view(data_ + e.offset, e.length);
}

inline std::string_view TupleView::PayloadBytesAt(size_t i) const {
  Extent e = ExtentOf(i);
  if (e.null) return {};
  if (layout_->types[i] == ValueType::kString) {
    return std::string_view(data_ + e.offset - 4, e.length + 4);
  }
  return std::string_view(data_ + e.offset, e.length);
}

inline uint32_t TupleView::PayloadOffset(size_t i) const {
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

inline std::string_view TupleView::PayloadRun(size_t begin,
                                              size_t end) const {
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

inline size_t TupleView::HashAttr(size_t i) const {
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

inline size_t TupleView::HashAttrs(
    const std::vector<size_t>& positions) const {
  size_t h = kAttrHashSeed;
  for (size_t pos : positions) h = MixAttrHash(h, HashAttr(pos));
  return h;
}

inline bool TupleView::EqualOnAttrs(const std::vector<size_t>& mine,
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

#endif  // TEMPO_RELATION_TUPLE_VIEW_H_
