#include "bitemporal/bitemporal_relation.h"

namespace tempo {

namespace {
constexpr const char* kTxStartAttr = "__tx_start";
constexpr const char* kTxEndAttr = "__tx_end";
}  // namespace

BitemporalRelation::BitemporalRelation(Disk* disk, Schema user_schema,
                                       std::string name)
    : disk_(disk), user_schema_(std::move(user_schema)) {
  std::vector<Attribute> attrs = user_schema_.attributes();
  attrs.push_back(Attribute{kTxStartAttr, ValueType::kInt64});
  attrs.push_back(Attribute{kTxEndAttr, ValueType::kInt64});
  store_.reset(
      new StoredRelation(disk, Schema(std::move(attrs)), std::move(name)));
}

Tuple BitemporalRelation::ToStored(const Tuple& t, TxTime tx_start,
                                   TxTime tx_end) const {
  std::vector<Value> values = t.values();
  values.emplace_back(tx_start);
  values.emplace_back(tx_end);
  return Tuple(std::move(values), t.interval());
}

Status BitemporalRelation::CheckClock(TxTime now) {
  if (now == kTxUntilChanged) {
    return Status::InvalidArgument(
        "transaction time must be a real instant");
  }
  if (last_tx_ != INT64_MIN && now < last_tx_) {
    return Status::InvalidArgument(
        "transaction time must be non-decreasing (got " +
        std::to_string(now) + " after " + std::to_string(last_tx_) + ")");
  }
  last_tx_ = now;
  return Status::OK();
}

Status BitemporalRelation::Insert(const Tuple& t, TxTime now) {
  if (t.num_values() != user_schema_.num_attributes()) {
    return Status::InvalidArgument("tuple does not match the user schema");
  }
  TEMPO_RETURN_IF_ERROR(CheckClock(now));
  TEMPO_RETURN_IF_ERROR(store_->Append(ToStored(t, now, kTxUntilChanged)));
  return store_->Flush();
}

Status BitemporalRelation::Delete(const Tuple& t, TxTime now) {
  TEMPO_RETURN_IF_ERROR(CheckClock(now));
  // Find the current version equal to `t` and close its transaction
  // interval in place: tx_end is a fixed-width attribute, so the closed
  // version has the record's size, and its page is rebuilt with every
  // other record's bytes as they are and written back — the
  // append-plus-close discipline of transaction time.
  const Schema& schema = store_->schema();
  const size_t n = user_schema_.num_attributes();
  PageTupleArena arena;
  for (uint32_t page_no = 0; page_no < store_->num_pages(); ++page_no) {
    TEMPO_ASSIGN_OR_RETURN(PagePin page, store_->PinPage(page_no));
    arena.Clear();
    TEMPO_RETURN_IF_ERROR(arena.AddPage(schema, std::move(page)).status());
    const std::vector<TupleView>& versions = arena.views();
    for (size_t slot = 0; slot < versions.size(); ++slot) {
      const TupleView& stored = versions[slot];
      if (stored.Int64At(n + 1) != kTxUntilChanged) continue;
      if (!(UserTupleOf(stored) == t)) continue;
      std::string closed;
      ToStored(t, stored.Int64At(n), now - 1).SerializeTo(schema, &closed);
      Page rebuilt;
      for (size_t s = 0; s < versions.size(); ++s) {
        TEMPO_CHECK(
            rebuilt.AddRecord(s == slot ? std::string_view(closed)
                                        : versions[s].record())
                .has_value());
      }
      return disk_->WritePage(store_->file_id(), page_no, rebuilt);
    }
  }
  return Status::NotFound("no current version matches " + t.ToString());
}

Status BitemporalRelation::Update(const Tuple& old_t, const Tuple& new_t,
                                  TxTime now) {
  TEMPO_RETURN_IF_ERROR(Delete(old_t, now));
  return Insert(new_t, now);
}

Status BitemporalRelation::ForEachCurrentVersion(
    TxTime as_of, const std::function<Status(const TupleView&)>& fn) {
  TEMPO_RETURN_IF_ERROR(store_->Flush());
  const size_t n = user_schema_.num_attributes();
  return store_->ForEachView([&](const TupleView& v) {
    // The transaction bounds are read in place; most versions are
    // filtered out here without ever decoding the user payload.
    const TxTime tx_start = v.Int64At(n);
    const TxTime tx_end = v.Int64At(n + 1);
    return tx_start <= as_of && as_of <= tx_end ? fn(v) : Status::OK();
  });
}

Tuple BitemporalRelation::UserTupleOf(const TupleView& stored) const {
  const size_t n = user_schema_.num_attributes();
  std::vector<Value> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(stored.ValueAt(i));
  return Tuple(std::move(values), stored.interval());
}

StatusOr<std::vector<Tuple>> BitemporalRelation::SnapshotAsOf(TxTime as_of) {
  std::vector<Tuple> out;
  TEMPO_RETURN_IF_ERROR(
      ForEachCurrentVersion(as_of, [&](const TupleView& v) -> Status {
        out.push_back(UserTupleOf(v));
        return Status::OK();
      }));
  return out;
}

StatusOr<TempRelation> BitemporalRelation::MaterializeAsOf(
    TxTime as_of, const std::string& name) {
  // Streams the snapshot straight into the output relation: one page of
  // the store in memory at a time, never the whole snapshot vector.
  TempRelation rel(new StoredRelation(disk_, user_schema_, name));
  TEMPO_RETURN_IF_ERROR(
      ForEachCurrentVersion(as_of, [&](const TupleView& v) {
        return rel->Append(UserTupleOf(v));
      }));
  TEMPO_RETURN_IF_ERROR(rel->Flush());
  return rel;
}

StatusOr<std::vector<Tuple>> BitemporalRelation::Timeslice(TxTime as_of,
                                                           Chronon vt) {
  std::vector<Tuple> out;
  TEMPO_RETURN_IF_ERROR(
      ForEachCurrentVersion(as_of, [&](const TupleView& v) -> Status {
        // Valid-time filter on the view's interval; only passing
        // versions materialize, already stamped with the slice instant.
        if (!v.interval().Contains(vt)) return Status::OK();
        Tuple t = UserTupleOf(v);
        t.set_interval(Interval::At(vt));
        out.push_back(std::move(t));
        return Status::OK();
      }));
  return out;
}

StatusOr<std::vector<Tuple>> BitemporalRelation::ReadAllVersions() {
  return store_->ReadAll();
}

StatusOr<JoinRunStats> BitemporalJoinAsOf(BitemporalRelation* r,
                                          BitemporalRelation* s, TxTime as_of,
                                          StoredRelation* out,
                                          const ExecOptions& options) {
  TEMPO_ASSIGN_OR_RETURN(TempRelation r_snap,
                         r->MaterializeAsOf(as_of, "bt.r.asof"));
  TEMPO_ASSIGN_OR_RETURN(TempRelation s_snap,
                         s->MaterializeAsOf(as_of, "bt.s.asof"));
  JoinRequest req;
  req.From(r_snap.get(), s_snap.get()).Using(JoinExecutor::kPartition);
  req.options = options;
  return RunJoin(req, out);
}

}  // namespace tempo
