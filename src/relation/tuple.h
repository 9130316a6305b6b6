#ifndef TEMPO_RELATION_TUPLE_H_
#define TEMPO_RELATION_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "relation/schema.h"
#include "relation/value.h"
#include "temporal/interval.h"

namespace tempo {

/// A tuple of a valid-time relation: explicit attribute values (in schema
/// order) stamped with a validity interval (paper Section 2).
class Tuple {
 public:
  Tuple() : interval_(Interval::At(0)) {}
  Tuple(std::vector<Value> values, Interval interval)
      : values_(std::move(values)), interval_(interval) {}

  size_t num_values() const { return values_.size(); }
  const Value& value(size_t i) const {
    TEMPO_DCHECK(i < values_.size());
    return values_[i];
  }
  const std::vector<Value>& values() const { return values_; }

  const Interval& interval() const { return interval_; }
  void set_interval(Interval iv) { interval_ = iv; }

  /// Value equality on explicit attributes AND timestamps.
  bool operator==(const Tuple& other) const {
    return interval_ == other.interval_ && values_ == other.values_;
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }

  /// Value equivalence [JSS92a]: equal on explicit attributes, timestamps
  /// ignored. Coalescing merges value-equivalent tuples.
  bool ValueEquivalent(const Tuple& other) const {
    return values_ == other.values_;
  }

  /// Combined hash over a subset of attribute positions; the equi-join key
  /// hash of the paper's A attributes.
  size_t HashAttrs(const std::vector<size_t>& positions) const;

  /// True iff this tuple and `other` agree on the aligned attribute
  /// positions (the snapshot equi-join condition x[A] = y[A]).
  bool EqualOnAttrs(const std::vector<size_t>& mine,
                    const std::vector<size_t>& theirs,
                    const Tuple& other) const;

  /// "(v1, v2, ...) @ [s, e]"
  std::string ToString() const;

  // --- Serialization --------------------------------------------------
  // Record wire format (little-endian):
  //   int64 Vs, int64 Ve,
  //   null bitmap: ceil(attributes / 8) bytes, bit i set when attribute i
  //     is NULL, padding bits zero,
  //   for each non-NULL attribute (schema order):
  //     int64 / double: 8 raw bytes
  //     string: uint32 length + bytes
  // Schemas are stored out-of-band (in the RelationFile metadata); records
  // carry no type tags. TupleView::Make is the one parser of the format.

  /// Number of bytes Serialize() will produce under `schema`.
  size_t SerializedSize(const Schema& schema) const;

  /// Appends the serialized record to `out`. The tuple must match the
  /// schema (checked in debug builds).
  void SerializeTo(const Schema& schema, std::string* out) const;

 private:
  std::vector<Value> values_;
  Interval interval_;
};

}  // namespace tempo

#endif  // TEMPO_RELATION_TUPLE_H_
