#include "storage/relation_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace tempo {

namespace {

constexpr char kMagic[] = "TEMPOREL1\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;

void Append32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void Append64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status Expect(std::string_view bytes) {
    if (data_.size() - pos_ < bytes.size() ||
        data_.substr(pos_, bytes.size()) != bytes) {
      return Status::Corruption("bad magic in relation image");
    }
    pos_ += bytes.size();
    return Status::OK();
  }
  StatusOr<uint32_t> Read32() {
    if (data_.size() - pos_ < 4) {
      return Status::Corruption("truncated relation image");
    }
    uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }
  StatusOr<uint64_t> Read64() {
    if (data_.size() - pos_ < 8) {
      return Status::Corruption("truncated relation image");
    }
    uint64_t v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  StatusOr<std::string_view> ReadBytes(size_t len) {
    if (data_.size() - pos_ < len) {
      return Status::Corruption("truncated relation image");
    }
    std::string_view out = data_.substr(pos_, len);
    pos_ += len;
    return out;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

Status SaveRelation(StoredRelation* rel, const std::string& path) {
  if (rel->HasUnflushedAppends()) {
    return Status::FailedPrecondition("flush the relation before saving");
  }
  std::string out(kMagic, kMagicLen);
  const Schema& schema = rel->schema();
  Append32(&out, static_cast<uint32_t>(schema.num_attributes()));
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    const Attribute& a = schema.attribute(i);
    out.push_back(static_cast<char>(a.type));
    Append32(&out, static_cast<uint32_t>(a.name.size()));
    out += a.name;
  }
  Append64(&out, rel->num_tuples());

  // Each record's stored bytes, as parsed (serialization is canonical).
  TEMPO_RETURN_IF_ERROR(rel->ForEachView([&](const TupleView& v) {
    Append32(&out, static_cast<uint32_t>(v.record().size()));
    out += v.record();
    return Status::OK();
  }));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  size_t written = std::fwrite(out.data(), 1, out.size(), f);
  int rc = std::fclose(f);
  if (written != out.size() || rc != 0) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<StoredRelation>> LoadRelation(
    Disk* disk, const std::string& path, const std::string& name) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, got);
  }
  std::fclose(f);

  Reader reader(data);
  TEMPO_RETURN_IF_ERROR(reader.Expect(std::string_view(kMagic, kMagicLen)));
  TEMPO_ASSIGN_OR_RETURN(uint32_t attr_count, reader.Read32());
  if (attr_count > 10000) {
    return Status::Corruption("implausible attribute count");
  }
  std::vector<Attribute> attrs;
  attrs.reserve(attr_count);
  for (uint32_t i = 0; i < attr_count; ++i) {
    TEMPO_ASSIGN_OR_RETURN(std::string_view type_byte, reader.ReadBytes(1));
    uint8_t raw = static_cast<uint8_t>(type_byte[0]);
    if (raw > static_cast<uint8_t>(ValueType::kString)) {
      return Status::Corruption("unknown attribute type");
    }
    TEMPO_ASSIGN_OR_RETURN(uint32_t name_len, reader.Read32());
    TEMPO_ASSIGN_OR_RETURN(std::string_view name_bytes,
                           reader.ReadBytes(name_len));
    attrs.push_back(
        Attribute{std::string(name_bytes), static_cast<ValueType>(raw)});
  }
  TEMPO_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  TEMPO_ASSIGN_OR_RETURN(uint64_t tuple_count, reader.Read64());

  // Held as a temporary until the last record parses, so a corrupt image
  // leaves no partial relation on the disk. A record that parses is
  // stored as it is (serialization is canonical).
  TempRelation rel(new StoredRelation(disk, schema, name));
  for (uint64_t i = 0; i < tuple_count; ++i) {
    TEMPO_ASSIGN_OR_RETURN(uint32_t len, reader.Read32());
    TEMPO_ASSIGN_OR_RETURN(std::string_view record, reader.ReadBytes(len));
    TEMPO_RETURN_IF_ERROR(
        TupleView::Make(schema.layout(), record.data(), record.size())
            .status());
    TEMPO_RETURN_IF_ERROR(rel->AppendRecord(record));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in relation image");
  }
  TEMPO_RETURN_IF_ERROR(rel->Flush());
  return std::unique_ptr<StoredRelation>(rel.release());
}

}  // namespace tempo
