#ifndef TEMPO_JOIN_EXTERNAL_SORT_H_
#define TEMPO_JOIN_EXTERNAL_SORT_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "obs/exec_context.h"
#include "storage/stored_relation.h"

namespace tempo {

/// A relation sorted by (Vs, Ve). Its file is deleted with it.
struct SortedRelation {
  TempRelation relation;
};

/// Externally sorts `input` by validity-interval start (ties by end) using
/// at most `buffer_pages` pages of memory: classic run formation (memory-
/// sized sorted runs) followed by multiway merge passes. Fewer buffer pages
/// mean more, shorter runs and possibly multiple merge passes — the memory
/// sensitivity the paper attributes to sort-merge (Section 4.2).
///
/// Temporary run files live on `input`'s disk and are deleted before
/// returning, on error paths too; all their I/O is charged. The returned
/// relation's file is named `output_name`.
///
/// Runs serially on the calling thread: run formation holds one chunk of
/// `buffer_pages` pages at a time, so `buffer_pages` bounds its memory and
/// its charged I/O is the serial sequence under either head model (DESIGN
/// §4c). The trailing `Scheduler*` is ignored; it stays only so perfbench,
/// which passes one, still compiles.
StatusOr<SortedRelation> ExternalSortByVs(StoredRelation* input,
                                          uint32_t buffer_pages,
                                          const std::string& output_name,
                                          Scheduler* ignored = nullptr);

/// Both inputs of a sort-based join, sorted by (Vs, Ve); the sorted files
/// are deleted when this is destroyed.
struct SortedInputs {
  SortedRelation r;
  SortedRelation s;
  IoStats io;  ///< charged I/O of both sorts
};

/// The sort prologue of the sort-merge, sweep and indexed executors: sorts
/// r, then s, with ExternalSortByVs over `buffer_pages`, each under its
/// kSortR / kSortS span.
StatusOr<SortedInputs> SortInputsByVs(StoredRelation* r, StoredRelation* s,
                                      uint32_t buffer_pages, ExecContext* ctx);

}  // namespace tempo

#endif  // TEMPO_JOIN_EXTERNAL_SORT_H_
