#include "temporal/temporal_predicate.h"

namespace tempo {
namespace {

struct NamedMask {
  const char* name;
  TemporalPredicate pred;
};

// Named shapes checked before falling back to '|'-joined relation names.
// Order matters for Name(): the first match wins.
constexpr NamedMask kNamedMasks[] = {
    {"overlap", TemporalPredicate::Overlap()},
    {"contains-join", TemporalPredicate::ContainJoin()},
    {"contained-in-join", TemporalPredicate::ContainedJoin()},
};

}  // namespace

std::string TemporalPredicate::Name() const {
  for (const NamedMask& nm : kNamedMasks) {
    if (*this == nm.pred) return nm.name;
  }
  std::string out;
  for (int i = 0; i <= static_cast<int>(AllenRelation::kAfter); ++i) {
    const AllenRelation r = static_cast<AllenRelation>(i);
    if (!Test(r)) continue;
    if (!out.empty()) out += '|';
    out += AllenRelationName(r);
  }
  return out;
}

TemporalPredicate TemporalPredicate::Converse() const {
  uint16_t mask = 0;
  for (int i = 0; i <= static_cast<int>(AllenRelation::kAfter); ++i) {
    const AllenRelation r = static_cast<AllenRelation>(i);
    if (Test(r)) mask |= Bit(InvertAllen(r));
  }
  return TemporalPredicate(mask);
}

std::optional<TemporalPredicate> TemporalPredicate::Parse(
    std::string_view name) {
  for (const NamedMask& nm : kNamedMasks) {
    if (name == nm.name) return nm.pred;
  }
  uint16_t mask = 0;
  size_t pos = 0;
  while (pos <= name.size()) {
    const size_t bar = name.find('|', pos);
    const std::string_view part =
        name.substr(pos, bar == std::string_view::npos ? bar : bar - pos);
    bool found = false;
    for (int i = 0; i <= static_cast<int>(AllenRelation::kAfter); ++i) {
      const AllenRelation r = static_cast<AllenRelation>(i);
      if (part == AllenRelationName(r)) {
        mask |= Bit(r);
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
    if (bar == std::string_view::npos) break;
    pos = bar + 1;
  }
  return FromMask(mask);
}

}  // namespace tempo
