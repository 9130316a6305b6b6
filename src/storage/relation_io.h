#ifndef TEMPO_STORAGE_RELATION_IO_H_
#define TEMPO_STORAGE_RELATION_IO_H_

#include <memory>
#include <string>

#include "common/statusor.h"
#include "storage/stored_relation.h"

namespace tempo {

/// Persistence of valid-time relations to real files (the simulated Disk
/// is in-memory by design — it is the paper's measurement instrument —
/// but a downstream user needs datasets to survive the process).
///
/// File format (little-endian):
///   magic "TEMPOREL1\n"
///   u32 attr_count; per attribute: u8 type, u32 name_len, name bytes
///   u64 tuple_count
///   per tuple: u32 record_len, record bytes (the page record format)
///
/// The format embeds the schema, so Load needs no prior knowledge and
/// verifies each record with the record parser (TupleView::Make).

/// Writes `rel` (must be flushed) to `path`.
Status SaveRelation(StoredRelation* rel, const std::string& path);

/// Reads a relation image from `path` into a fresh StoredRelation named
/// `name` on `disk`. The returned relation belongs to the caller; a failed
/// load leaves no pages on `disk`.
StatusOr<std::unique_ptr<StoredRelation>> LoadRelation(
    Disk* disk, const std::string& path, const std::string& name);

}  // namespace tempo

#endif  // TEMPO_STORAGE_RELATION_IO_H_
