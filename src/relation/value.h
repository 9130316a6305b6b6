#ifndef TEMPO_RELATION_VALUE_H_
#define TEMPO_RELATION_VALUE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <variant>

#include "common/assert.h"

namespace tempo {

/// Attribute types supported by the relational layer.
enum class ValueType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

const char* ValueTypeName(ValueType t);

/// A single attribute value. Small, copyable, hashable.
///
/// A Value may be NULL (e.g. the padded side of a TE-outerjoin result).
/// NULL is a value state, not a type: a NULL still occupies an attribute
/// position whose declared type is in the schema, and is serialized via a
/// per-record null bitmap.
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(const char* v) : v_(std::string(v)) {}

  static Value Null() {
    Value v;
    v.v_ = std::monostate{};
    return v;
  }

  bool is_null() const {
    return std::holds_alternative<std::monostate>(v_);
  }

  /// Type of a non-null value. Must not be called on NULL.
  ValueType type() const {
    TEMPO_DCHECK(!is_null());
    return static_cast<ValueType>(v_.index());
  }

  int64_t AsInt64() const {
    TEMPO_DCHECK(type() == ValueType::kInt64);
    return std::get<int64_t>(v_);
  }
  double AsDouble() const {
    TEMPO_DCHECK(type() == ValueType::kDouble);
    return std::get<double>(v_);
  }
  const std::string& AsString() const {
    TEMPO_DCHECK(type() == ValueType::kString);
    return std::get<std::string>(v_);
  }

  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Strict weak order: by type (NULL last), then by value. NaN sorts after
  /// every other double and all NaNs are equivalent, so a map keyed by
  /// values (coalescing, aggregate groups) keeps NaN apart from numbers.
  bool operator<(const Value& other) const {
    if (v_.index() == 1 && other.v_.index() == 1) {
      const double a = std::get<double>(v_);
      const double b = std::get<double>(other.v_);
      if (std::isnan(a) || std::isnan(b)) return !std::isnan(a);
      return a < b;
    }
    return v_ < other.v_;
  }

  /// Hash suitable for join-key hashing; values of different types never
  /// compare equal, so mixing the index is fine.
  size_t Hash() const;

  // Per-type hash primitives. These define the *canonical* hash of a typed
  // value: Value::Hash() delegates to them, and the zero-copy TupleView
  // hashes record bytes through the same functions, so a view and the
  // owning tuple it would materialize into always land in the same hash
  // bucket. C++17 guarantees HashString matches std::hash<std::string>
  // over the same characters.
  static size_t HashNull() { return 0xdeadbeefcafef00dull; }
  static size_t HashInt64(int64_t v) {
    return FinishHash(std::hash<int64_t>()(v), ValueType::kInt64);
  }
  static size_t HashDouble(double v) {
    return FinishHash(std::hash<double>()(v), ValueType::kDouble);
  }
  static size_t HashString(std::string_view v) {
    return FinishHash(std::hash<std::string_view>()(v), ValueType::kString);
  }

  std::string ToString() const;

 private:
  // Mix in the alternative index so equal bit patterns of different types
  // hash apart, then finalize (splitmix-style).
  static size_t FinishHash(size_t h, ValueType t) {
    h ^= static_cast<size_t>(t) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
    return h;
  }

  // Alternative order defines ValueType's numeric values; monostate (NULL)
  // is deliberately last so type() == index() for non-null values.
  std::variant<int64_t, double, std::string, std::monostate> v_;
};

/// The seed and per-attribute mixing step of the combined join-key hash
/// (Tuple::HashAttrs / TupleView::HashAttrs). Shared so both paths produce
/// the same bucket for the same key values.
inline constexpr size_t kAttrHashSeed = 0x243f6a8885a308d3ull;
inline size_t MixAttrHash(size_t h, size_t value_hash) {
  return h ^ (value_hash + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

}  // namespace tempo

#endif  // TEMPO_RELATION_VALUE_H_
