#include "relation/tuple.h"

#include <cstring>

namespace tempo {

namespace {

void AppendRaw64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

}  // namespace

size_t Tuple::HashAttrs(const std::vector<size_t>& positions) const {
  size_t h = kAttrHashSeed;
  for (size_t pos : positions) h = MixAttrHash(h, value(pos).Hash());
  return h;
}

bool Tuple::EqualOnAttrs(const std::vector<size_t>& mine,
                         const std::vector<size_t>& theirs,
                         const Tuple& other) const {
  TEMPO_DCHECK(mine.size() == theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    if (value(mine[i]) != other.value(theirs[i])) return false;
  }
  return true;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i != 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ") @ ";
  out += interval_.ToString();
  return out;
}

size_t Tuple::SerializedSize(const Schema& schema) const {
  size_t size = 16;  // interval
  size += (schema.num_attributes() + 7) / 8;  // null bitmap
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (value(i).is_null()) continue;
    switch (schema.attribute(i).type) {
      case ValueType::kInt64:
      case ValueType::kDouble:
        size += 8;
        break;
      case ValueType::kString:
        size += 4 + value(i).AsString().size();
        break;
    }
  }
  return size;
}

void Tuple::SerializeTo(const Schema& schema, std::string* out) const {
  TEMPO_DCHECK(values_.size() == schema.num_attributes());
  AppendRaw64(out, static_cast<uint64_t>(interval_.start()));
  AppendRaw64(out, static_cast<uint64_t>(interval_.end()));
  // Null bitmap: bit i set means attribute i is NULL (no payload bytes).
  const size_t bitmap_bytes = (schema.num_attributes() + 7) / 8;
  size_t bitmap_pos = out->size();
  out->append(bitmap_bytes, '\0');
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (value(i).is_null()) {
      (*out)[bitmap_pos + i / 8] |= static_cast<char>(1u << (i % 8));
      continue;
    }
    TEMPO_DCHECK(value(i).type() == schema.attribute(i).type);
    switch (schema.attribute(i).type) {
      case ValueType::kInt64:
        AppendRaw64(out, static_cast<uint64_t>(value(i).AsInt64()));
        break;
      case ValueType::kDouble: {
        double d = value(i).AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        AppendRaw64(out, bits);
        break;
      }
      case ValueType::kString: {
        const std::string& s = value(i).AsString();
        uint32_t len = static_cast<uint32_t>(s.size());
        char buf[4];
        std::memcpy(buf, &len, 4);
        out->append(buf, 4);
        out->append(s);
        break;
      }
    }
  }
}

}  // namespace tempo
