#ifndef TEMPO_BITEMPORAL_BITEMPORAL_RELATION_H_
#define TEMPO_BITEMPORAL_BITEMPORAL_RELATION_H_

#include <functional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "relation/tuple_view.h"
#include "service/join_request.h"
#include "storage/stored_relation.h"

namespace tempo {

/// Transaction time: when a fact was current *in the database* [SA86,
/// JCG+92]. Monotone, supplied by the caller (a commit clock).
using TxTime = int64_t;

/// Open transaction end: the version is current ("until changed").
inline constexpr TxTime kTxUntilChanged = INT64_MAX;

/// A bitemporal relation: every version carries BOTH a valid-time
/// interval (when the fact held in the modelled world — the Tuple's
/// regular interval) and a transaction-time interval (when the version
/// was part of the database state).
///
/// This is the paper's Section 5 destination: "this work can be
/// considered as the first step towards the construction of an
/// incremental evaluation system for a bitemporal database management
/// system, that is, a DBMS that supports both valid and transaction
/// time". The valid-time machinery of this library applies per
/// transaction-time snapshot: SnapshotAsOf materializes the valid-time
/// relation current at any past transaction instant, and every join /
/// operator of the library runs on it unchanged.
///
/// Storage: the user schema is augmented with two int64 attributes
/// `__tx_start` / `__tx_end` and stored in an ordinary heap file, which
/// is deleted with this object.
/// Transaction semantics:
///  - Insert(t, now) appends a version with tx = [now, until-changed);
///  - Delete(t, now) *closes* the current version's tx interval in place
///    (tx_end = now - 1): nothing is ever physically removed — the
///    append-plus-close discipline is what makes transaction-time
///    queries possible;
///  - transaction time is required to be non-decreasing across calls.
class BitemporalRelation {
 public:
  /// Creates an empty bitemporal relation over the *user* schema (the
  /// transaction attributes are managed internally).
  BitemporalRelation(Disk* disk, Schema user_schema, std::string name);

  const Schema& user_schema() const { return user_schema_; }
  const Schema& stored_schema() const { return store_->schema(); }
  StoredRelation* store() { return store_.get(); }

  /// Number of versions ever written (including closed ones).
  uint64_t num_versions() const { return store_->num_tuples(); }
  /// Latest transaction time seen.
  TxTime last_tx() const { return last_tx_; }

  /// Records `t` (a user-schema tuple with its valid-time interval) as
  /// current from transaction time `now` on.
  Status Insert(const Tuple& t, TxTime now);

  /// Logically deletes the current version equal to `t` (user attributes
  /// and valid-time interval): its transaction interval is closed at
  /// `now - 1`. NotFound if no current version matches.
  Status Delete(const Tuple& t, TxTime now);

  /// Logical update: Delete(old_t) + Insert(new_t) at the same instant.
  Status Update(const Tuple& old_t, const Tuple& new_t, TxTime now);

  /// The valid-time relation current at transaction time `as_of`
  /// (transaction timeslice): user-schema tuples whose version's
  /// transaction interval contains `as_of`.
  StatusOr<std::vector<Tuple>> SnapshotAsOf(TxTime as_of);

  /// Materializes SnapshotAsOf into a StoredRelation (user schema) so
  /// disk-based operators — the partition join above all — can run on
  /// it. The output is created on the same disk and deleted with the
  /// returned owner; a failed call leaves no partly written file.
  StatusOr<TempRelation> MaterializeAsOf(
      TxTime as_of, const std::string& name);

  /// Bitemporal timeslice: the user tuples current at transaction time
  /// `as_of` AND valid at chronon `vt` — "what did the database believe
  /// at as_of about the world at vt?".
  StatusOr<std::vector<Tuple>> Timeslice(TxTime as_of, Chronon vt);

  /// Every version, with its transaction interval exposed as two extra
  /// int64 values (for auditing / tests).
  StatusOr<std::vector<Tuple>> ReadAllVersions();

 private:
  /// Converts user tuple + tx interval to the stored representation.
  Tuple ToStored(const Tuple& t, TxTime tx_start, TxTime tx_end) const;

  /// Streams every version current at `as_of` as a zero-copy view over
  /// the store's pages (one page in memory at a time, no full-relation
  /// materialization). The transaction attributes are read in place; `fn`
  /// materializes only the versions it keeps.
  Status ForEachCurrentVersion(
      TxTime as_of, const std::function<Status(const TupleView&)>& fn);

  /// User-schema tuple of a stored version view (drops the two
  /// transaction attributes).
  Tuple UserTupleOf(const TupleView& stored) const;

  Status CheckClock(TxTime now);

  Disk* disk_;
  Schema user_schema_;
  TempRelation store_;
  TxTime last_tx_ = INT64_MIN;
};

/// Joins two bitemporal relations as of one transaction instant: both
/// sides' snapshots are materialized and evaluated with the partition
/// valid-time natural join (RunJoin, JoinExecutor::kPartition). Output is
/// an ordinary valid-time relation (user schemas joined). The
/// materialization I/O is charged; the snapshot files are deleted on
/// every path, failed calls included.
StatusOr<JoinRunStats> BitemporalJoinAsOf(BitemporalRelation* r,
                                          BitemporalRelation* s, TxTime as_of,
                                          StoredRelation* out,
                                          const ExecOptions& options);

}  // namespace tempo

#endif  // TEMPO_BITEMPORAL_BITEMPORAL_RELATION_H_
