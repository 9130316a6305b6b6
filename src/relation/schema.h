#ifndef TEMPO_RELATION_SCHEMA_H_
#define TEMPO_RELATION_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "relation/record_layout.h"
#include "relation/value.h"

namespace tempo {

/// One explicit (non-timestamp) attribute of a valid-time relation schema.
struct Attribute {
  std::string name;
  ValueType type;

  bool operator==(const Attribute& other) const {
    return name == other.name && type == other.type;
  }
};

/// Schema of a valid-time relation in the 1NF tuple-timestamped model
/// (paper Section 2): explicit attributes A1..An plus the implicit
/// valid-time interval V = [Vs, Ve]. The timestamp attributes are not listed
/// here; every Tuple carries an Interval alongside its explicit values.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attributes);

  /// Validating factory: rejects duplicate attribute names.
  static StatusOr<Schema> Make(std::vector<Attribute> attributes);

  size_t num_attributes() const { return attributes_.size(); }
  const Attribute& attribute(size_t i) const { return attributes_[i]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Index of the attribute named `name`, or nullopt.
  std::optional<size_t> IndexOf(const std::string& name) const;

  bool operator==(const Schema& other) const {
    return attributes_ == other.attributes_;
  }

  /// "(name:type, ...)"
  std::string ToString() const;

  /// Precomputed serialized-record layout for this schema's attribute
  /// types. Cached once at construction; TupleView borrows it, so the
  /// layout is held behind a shared_ptr that copies of the Schema share
  /// (views remain valid across Schema copies).
  const RecordLayout& layout() const;

 private:
  std::vector<Attribute> attributes_;
  std::shared_ptr<const RecordLayout> layout_;
};

/// Precomputed layout of a valid-time natural join r ⋈ᵥ s: which attribute
/// positions participate in the equi-join (the A's of the paper's
/// definition, i.e. the attributes the two schemas share by name), and how
/// the output tuple is assembled (A, B from r, C from s).
struct NaturalJoinLayout {
  /// Positions of the shared attributes in r and s, aligned pairwise.
  std::vector<size_t> r_join_attrs;
  std::vector<size_t> s_join_attrs;
  /// Positions of r's non-join attributes (the B's).
  std::vector<size_t> r_rest;
  /// Positions of s's non-join attributes (the C's).
  std::vector<size_t> s_rest;
  /// Output schema: A1..An, B1..Bk, C1..Cm (valid time implicit).
  Schema output;

  /// One run of consecutive source attributes [begin, end) of r (from_r)
  /// or of s.
  struct SourceRun {
    bool from_r;
    size_t begin;
    size_t end;
  };
  /// The output's attributes as source runs, in output order: the
  /// positions of A, of B (both in r) and of C (in s), each split where
  /// they stop being consecutive. Derived once with the layout, so a
  /// result record copies each run's payloads in one piece.
  std::vector<SourceRun> output_runs;
};

/// Derives the natural-join layout of two schemas. Fails with
/// InvalidArgument if a shared attribute name has different types in r and
/// s. Schemas sharing no attribute are allowed: the join degenerates to a
/// valid-time Cartesian product filtered by interval overlap (the paper's
/// time-join T-join).
StatusOr<NaturalJoinLayout> DeriveNaturalJoinLayout(const Schema& r,
                                                    const Schema& s);

}  // namespace tempo

#endif  // TEMPO_RELATION_SCHEMA_H_
