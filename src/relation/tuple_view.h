#ifndef TEMPO_RELATION_TUPLE_VIEW_H_
#define TEMPO_RELATION_TUPLE_VIEW_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

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

}  // namespace tempo

#endif  // TEMPO_RELATION_TUPLE_VIEW_H_
