#include "relation/schema.h"

#include <unordered_map>
#include <unordered_set>

namespace tempo {

namespace {

std::shared_ptr<const RecordLayout> LayoutFor(
    const std::vector<Attribute>& attributes) {
  std::vector<ValueType> types;
  types.reserve(attributes.size());
  for (const auto& a : attributes) types.push_back(a.type);
  return std::make_shared<const RecordLayout>(MakeRecordLayout(types));
}

}  // namespace

Schema::Schema(std::vector<Attribute> attributes)
    : attributes_(std::move(attributes)), layout_(LayoutFor(attributes_)) {}

const RecordLayout& Schema::layout() const {
  // Default-constructed Schema: an empty layout (interval + empty bitmap).
  static const RecordLayout kEmpty = MakeRecordLayout({});
  return layout_ ? *layout_ : kEmpty;
}

StatusOr<Schema> Schema::Make(std::vector<Attribute> attributes) {
  std::unordered_set<std::string> seen;
  for (const auto& a : attributes) {
    if (!seen.insert(a.name).second) {
      return Status::InvalidArgument("duplicate attribute name: " + a.name);
    }
  }
  return Schema(std::move(attributes));
}

std::optional<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return std::nullopt;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i != 0) out += ", ";
    out += attributes_[i].name;
    out += ":";
    out += ValueTypeName(attributes_[i].type);
  }
  out += ")";
  return out;
}

StatusOr<NaturalJoinLayout> DeriveNaturalJoinLayout(const Schema& r,
                                                    const Schema& s) {
  NaturalJoinLayout layout;
  std::unordered_map<std::string, size_t> s_by_name;
  for (size_t j = 0; j < s.num_attributes(); ++j) {
    s_by_name.emplace(s.attribute(j).name, j);
  }

  std::vector<Attribute> out_attrs;
  std::unordered_set<size_t> s_joined;
  for (size_t i = 0; i < r.num_attributes(); ++i) {
    const Attribute& ra = r.attribute(i);
    auto it = s_by_name.find(ra.name);
    if (it != s_by_name.end()) {
      const Attribute& sa = s.attribute(it->second);
      if (sa.type != ra.type) {
        return Status::InvalidArgument(
            "shared attribute '" + ra.name + "' has mismatched types: " +
            ValueTypeName(ra.type) + " vs " + ValueTypeName(sa.type));
      }
      layout.r_join_attrs.push_back(i);
      layout.s_join_attrs.push_back(it->second);
      s_joined.insert(it->second);
      out_attrs.push_back(ra);
    }
  }
  for (size_t i = 0; i < r.num_attributes(); ++i) {
    if (s_by_name.find(r.attribute(i).name) == s_by_name.end()) {
      layout.r_rest.push_back(i);
      out_attrs.push_back(r.attribute(i));
    }
  }
  for (size_t j = 0; j < s.num_attributes(); ++j) {
    if (s_joined.find(j) == s_joined.end()) {
      layout.s_rest.push_back(j);
      out_attrs.push_back(s.attribute(j));
    }
  }
  layout.output = Schema(std::move(out_attrs));
  auto add_runs = [&layout](bool from_r, const std::vector<size_t>& pos) {
    for (size_t i = 0; i < pos.size();) {
      size_t j = i + 1;
      while (j < pos.size() && pos[j] == pos[j - 1] + 1) ++j;
      layout.output_runs.push_back({from_r, pos[i], pos[j - 1] + 1});
      i = j;
    }
  };
  add_runs(true, layout.r_join_attrs);
  add_runs(true, layout.r_rest);
  add_runs(false, layout.s_rest);
  return layout;
}

}  // namespace tempo
