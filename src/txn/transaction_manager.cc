#include "txn/transaction_manager.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "storage/tier/tier_store.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/io_attribution.h"
#include "telemetry/profiler.h"
#include "telemetry/trace.h"

namespace gemstone::txn {

TransactionManager::TransactionManager(ObjectMemory* memory,
                                       storage::StorageEngine* engine)
    : memory_(memory),
      engine_(engine),
      commit_latency_us_(telemetry::MetricsRegistry::Global().GetHistogram(
          "txn.commit_latency_us")),
      telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("txn.begun", begun_.value());
            sink->Counter("txn.committed", committed_.value());
            sink->Counter("txn.aborted", aborted_.value());
            sink->Counter("txn.conflicts", conflicts_.value());
            sink->Counter("txn.commit_storage_failures",
                          commit_storage_failures_.value());
            sink->Counter("txn.historical_reads", historical_reads_.value());
            sink->Counter("txn.tier_routed_reads",
                          tier_routed_reads_.value());
            sink->Gauge("txn.read_set_peak",
                        static_cast<std::int64_t>(read_set_peak_.load(
                            std::memory_order_relaxed)));
          })) {}

void TransactionManager::NoteHistoricalRead(Oid oid) {
  historical_reads_.Increment();
  if (engine_ != nullptr) {
    // Marks the access historical for any device I/O this read causes
    // *and* heats the extent tracks directly for the in-memory case.
    telemetry::HistoricalAccessScope historical;
    engine_->NoteHistoricalObjectAccess(oid);
  }
}

void TransactionManager::NoteReadRecorded(const Transaction& txn) {
  const std::uint64_t n = txn.read_set_.size();
  std::uint64_t peak = read_set_peak_.load(std::memory_order_relaxed);
  while (n > peak &&
         !read_set_peak_.compare_exchange_weak(peak, n,
                                               std::memory_order_relaxed)) {
  }
}

std::unique_ptr<Transaction> TransactionManager::Begin(SessionId session,
                                                       UserId user) {
  WriterMutexLock lock(store_mu_);
  begun_.Increment();
  auto txn = std::make_unique<Transaction>(session, clock_.load(), user);
  telemetry::FlightRecorder::Global().Record(
      telemetry::FlightEventKind::kTxnBegin, session, txn->start_time(), 0,
      "");
  return txn;
}

Status TransactionManager::CheckReadAccess(const Transaction* txn,
                                           Oid oid) const {
  if (access_ == nullptr || txn->created_.count(oid.raw) != 0) {
    return Status::OK();
  }
  return access_->CheckRead(txn->user(), oid);
}

Status TransactionManager::CheckWriteAccess(const Transaction* txn,
                                            Oid oid) const {
  if (access_ == nullptr || txn->created_.count(oid.raw) != 0) {
    return Status::OK();
  }
  return access_->CheckWrite(txn->user(), oid);
}

Status TransactionManager::Abort(Transaction* txn) {
  WriterMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("abort of a finished transaction");
  }
  txn->state_ = TxnState::kAborted;
  txn->working_.clear();
  aborted_.Increment(1, std::memory_order_release);
  telemetry::FlightRecorder::Global().Record(
      telemetry::FlightEventKind::kTxnAbort, txn->session(),
      txn->start_time(), 0, "explicit abort");
  return Status::OK();
}

bool TransactionManager::HasConflictLocked(const Transaction& txn,
                                           std::uint64_t raw) const {
  if (txn.created_.count(raw) != 0) return false;
  auto it = last_commit_.find(raw);
  return it != last_commit_.end() && it->second > txn.start_time();
}

Status TransactionManager::AbortConflictedLocked(Transaction* txn,
                                                 std::uint64_t raw,
                                                 const char* what) {
  // Counter order (aborted, then the cause with release) upholds the
  // TxnStats snapshot invariants.
  txn->state_ = TxnState::kAborted;
  txn->working_.clear();
  aborted_.Increment(1, std::memory_order_release);
  conflicts_.Increment(1, std::memory_order_release);
  // Per-object contention evidence (ConflictHotspots); store_mu_ is held
  // exclusively here.
  auto hot = conflict_by_oid_.find(raw);
  if (hot != conflict_by_oid_.end()) {
    ++hot->second;
  } else if (conflict_by_oid_.size() < kConflictHotspotCap) {
    conflict_by_oid_.emplace(raw, 1);
  } else {
    static telemetry::Counter* dropped =
        telemetry::MetricsRegistry::Global().GetCounter(
            "txn.conflict_oids_dropped");
    dropped->Increment();
  }
  telemetry::FlightRecorder::Global().Record(
      telemetry::FlightEventKind::kTxnConflict, txn->session(), raw, 0,
      std::string(what) + " object " + Oid(raw).ToString() +
          " changed since start");
  return Status::TransactionConflict(std::string(what) + " object " +
                                     Oid(raw).ToString() +
                                     " changed since start");
}

Status TransactionManager::Commit(Transaction* txn) {
  TELEM_SPAN("txn.commit");
  const auto commit_start = std::chrono::steady_clock::now();
  auto observe_latency = [&] {
    commit_latency_us_->Observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - commit_start)
            .count()));
  };
  // Transaction state is session-confined; no lock needed to inspect it.
  if (!txn->active()) {
    return Status::TransactionState("commit of a finished transaction");
  }

  auto release_read_only = [&] {
    txn->state_ = TxnState::kCommitted;
    txn->working_.clear();
    committed_.Increment(1, std::memory_order_release);
    observe_latency();
    return Status::OK();
  };

  // A transaction that recorded nothing (the Executor's snapshot read path
  // resolves every read at a pinned past time) releases without touching
  // the store lock at all — there is nothing to validate or publish.
  if (txn->read_set_.empty() && txn->dirty_.empty() &&
      txn->created_.empty()) {
    return release_read_only();
  }

  // Read-only with a recorded read set: validation only compares
  // `last_commit_` stamps, so the shared lock suffices — concurrent
  // readers and other read-only commits proceed, only writers exclude us.
  // If a writer commits after we validate, we simply serialize before it.
  if (txn->dirty_.empty() && txn->created_.empty()) {
    bool conflict = false;
    std::uint64_t conflicted = 0;
    {
      ReaderMutexLock lock(store_mu_);
      for (std::uint64_t raw : txn->read_set_) {
        if (HasConflictLocked(*txn, raw)) {
          conflict = true;
          conflicted = raw;
          break;
        }
      }
    }
    if (!conflict) return release_read_only();
    // Conflicts are the rare path: re-acquire exclusively for the abort
    // bookkeeping (the hotspot tally mutates shared state).
    WriterMutexLock lock(store_mu_);
    return AbortConflictedLocked(txn, conflicted, "read");
  }

  WriterMutexLock lock(store_mu_);

  // Backward validation: any accessed object committed after our start is
  // a conflict ("validates them for consistency when a transaction
  // commits", §6).
  for (std::uint64_t raw : txn->read_set_) {
    if (HasConflictLocked(*txn, raw)) {
      return AbortConflictedLocked(txn, raw, "read");
    }
  }
  for (const auto& [raw, marks] : txn->dirty_) {
    if (HasConflictLocked(*txn, raw)) {
      return AbortConflictedLocked(txn, raw, "written");
    }
  }

  const TxnTime commit_time = clock_.load() + 1;

  // Any failure from here on aborts cleanly: the store, last_commit_, and
  // the clock are untouched until the publish phase, which cannot fail.
  auto abort_cleanly = [&](Status status) {
    txn->state_ = TxnState::kAborted;
    txn->working_.clear();
    aborted_.Increment(1, std::memory_order_release);
    telemetry::FlightRecorder::Global().Record(
        telemetry::FlightEventKind::kTxnAbort, txn->session(),
        txn->start_time(), 0, status.message());
    return status;
  };

  // Stage phase: build each dirty object's post-commit image beside the
  // store, re-stamping the provisional (kTimeNow) workspace bindings with
  // the commit time.
  struct Staged {
    std::uint64_t raw;
    GsObject image;
    GsObject* permanent;  // destination; nullptr for a created object
  };
  std::vector<Staged> staged;
  staged.reserve(txn->dirty_.size());
  for (auto& [raw, marks] : txn->dirty_) {
    const Oid oid{raw};
    auto working_it = txn->working_.find(raw);
    if (working_it == txn->working_.end()) {
      return abort_cleanly(
          Status::Internal("dirty object lacks a workspace copy"));
    }
    const GsObject& copy = working_it->second;
    if (txn->created_.count(raw) != 0) {
      // New object: materialize with every provisional binding re-stamped.
      if (memory_->Find(oid) != nullptr) {
        return abort_cleanly(
            Status::Internal("created oid already in permanent store"));
      }
      GsObject fresh(copy.oid(), copy.class_oid());
      for (const NamedElement& element : copy.named_elements()) {
        for (const Association& a : element.table.entries()) {
          fresh.WriteNamed(element.name,
                           a.time == kTimeNow ? commit_time : a.time,
                           a.value);
        }
      }
      for (std::size_t i = 0; i < copy.indexed_capacity(); ++i) {
        for (const Association& a : copy.IndexedHistory(i)->entries()) {
          fresh.WriteIndexed(i, a.time == kTimeNow ? commit_time : a.time,
                             a.value);
        }
      }
      staged.push_back({raw, std::move(fresh), nullptr});
    } else {
      GsObject* permanent = memory_->FindMutable(oid);
      if (permanent == nullptr) {
        return abort_cleanly(
            Status::Internal("dirty object vanished from permanent store"));
      }
      GsObject image = *permanent;
      for (SymbolId name : marks.named) {
        const Value* v = copy.ReadNamed(name, kTimeNow);
        image.WriteNamed(name, commit_time, v ? *v : Value::Nil());
      }
      // Ascending order so appends extend the image correctly.
      std::vector<std::size_t> indexed(marks.indexed.begin(),
                                       marks.indexed.end());
      std::sort(indexed.begin(), indexed.end());
      for (std::size_t index : indexed) {
        const Value* v = copy.ReadIndexed(index, kTimeNow);
        image.WriteIndexed(index, commit_time, v ? *v : Value::Nil());
      }
      staged.push_back({raw, std::move(image), permanent});
    }
  }

  // Persist phase: the safe group write (Boxer/Linker/CommitManager) makes
  // the staged images durable before any becomes visible. On failure the
  // disk still recovers to the previous root and memory is unchanged, so a
  // retry of the same writes sees no phantom conflicts.
  if (engine_ != nullptr) {
    std::vector<const GsObject*> changed;
    changed.reserve(staged.size());
    for (const Staged& s : staged) changed.push_back(&s.image);
    Status persisted = engine_->CommitObjects(changed, memory_->symbols());
    if (!persisted.ok()) {
      // Abort (aborted_) before the cause counter: a stats() snapshot
      // that observes the storage failure has already observed the abort.
      Status status = abort_cleanly(persisted);
      commit_storage_failures_.Increment(1, std::memory_order_release);
      return status;
    }
  }

  // Publish phase: durability achieved; fold the staged images into the
  // permanent store and advance the logical state. Nothing fallible left
  // (ObjectMemory pointers are stable and created oids were verified
  // absent under this same exclusive lock).
  for (Staged& s : staged) {
    if (s.permanent == nullptr) {
      (void)memory_->Insert(std::move(s.image));
    } else {
      *s.permanent = std::move(s.image);
    }
    last_commit_[s.raw] = commit_time;
  }
  clock_.store(commit_time);
  txn->state_ = TxnState::kCommitted;
  txn->working_.clear();
  committed_.Increment(1, std::memory_order_release);
  const std::uint64_t latency_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - commit_start)
          .count());
  telemetry::FlightRecorder::Global().Record(
      telemetry::FlightEventKind::kTxnCommit, txn->session(), commit_time,
      latency_us, "");
  observe_latency();
  return Status::OK();
}

TxnStats TransactionManager::stats() const {
  // Load order is the reverse of the writers' increment order: abort
  // causes first (acquire), then outcomes (acquire), then begun — see the
  // TxnStats invariants. Writers release the last counter they touch, so
  // each acquire load publishes everything incremented before it.
  TxnStats stats;
  stats.conflicts = conflicts_.value(std::memory_order_acquire);
  stats.commit_storage_failures =
      commit_storage_failures_.value(std::memory_order_acquire);
  stats.aborted = aborted_.value(std::memory_order_acquire);
  stats.committed = committed_.value(std::memory_order_acquire);
  stats.begun = begun_.value();
  return stats;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
TransactionManager::ConflictHotspots(std::size_t top_n) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  {
    ReaderMutexLock lock(store_mu_);
    out.assign(conflict_by_oid_.begin(), conflict_by_oid_.end());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

Result<Oid> TransactionManager::CreateObject(Transaction* txn, Oid class_oid) {
  WriterMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("create outside an active transaction");
  }
  if (memory_->classes().Get(class_oid) == nullptr) {
    return Status::NotFound("no such class: " + class_oid.ToString());
  }
  const Oid oid = memory_->AllocateOid();
  txn->working_.emplace(oid.raw, GsObject(oid, class_oid));
  txn->created_.insert(oid.raw);
  txn->dirty_[oid.raw];  // ensure the object publishes even if never written
  telemetry::Profiler::CountAlloc();
  return oid;
}

Result<const GsObject*> TransactionManager::ViewLocked(Transaction* txn,
                                                       Oid oid,
                                                       TxnTime at) const {
  if (at == kTimeNow) {
    auto it = txn->working_.find(oid.raw);
    if (it != txn->working_.end()) return &it->second;
  }
  const GsObject* object = memory_->Find(oid);
  if (object == nullptr) {
    if (memory_->IsArchived(oid)) {
      return Status::Unavailable("object migrated to archival media: " +
                                 oid.ToString());
    }
    return Status::NotFound("no such object: " + oid.ToString());
  }
  return object;
}

Result<const GsObject*> TransactionManager::ReadableLocked(
    const ReadCall& call, Oid oid) {
  if (!call.txn->active()) {
    return Status::TransactionState("read outside an active transaction");
  }
  GS_RETURN_IF_ERROR(CheckReadAccess(call.txn, oid));
  GS_ASSIGN_OR_RETURN(const GsObject* object,
                      ViewLocked(call.txn, oid, call.at));
  if (call.at == kTimeNow) {
    call.txn->read_set_.insert(oid.raw);
    NoteReadRecorded(*call.txn);
  } else {
    NoteHistoricalRead(oid);
  }
  return object;
}

Result<const Value*> TransactionManager::ElementAtLocked(
    ReadCall* call, const GsObject& object, ElementKey key,
    const AssociationTable* resident) {
  if (tiers_ != nullptr && call->at != kTimeNow &&
      call->at < object.history_floor()) {
    return TierElementLocked(call, object, key);
  }
  return resident ? resident->ValueAt(call->at) : nullptr;
}

Result<const Value*> TransactionManager::TierElementLocked(
    ReadCall* call, const GsObject& object, ElementKey key) {
  if (!call->tier_counted) {
    call->tier_counted = true;
    tier_routed_reads_.Increment();
  }
  const SymbolId* name = std::get_if<SymbolId>(&key);
  GS_ASSIGN_OR_RETURN(
      std::optional<Association> binding,
      name != nullptr
          ? tiers_->ResolveNamed(object.oid(), memory_->symbols().Name(*name),
                                 call->at)
          : tiers_->ResolveIndexed(object.oid(), std::get<std::size_t>(key),
                                   call->at));
  if (!binding.has_value()) return nullptr;
  call->tier_value = std::move(binding->value);
  return &call->tier_value;
}

Result<std::vector<std::pair<SymbolId, Value>>>
TransactionManager::NamedAtLocked(ReadCall* call, const GsObject& object,
                                  bool skip_unbound) {
  // Element existence is resident (names are never truncated); only the
  // values may come from the tier.
  std::vector<std::pair<SymbolId, Value>> out;
  for (const NamedElement& element : object.named_elements()) {
    GS_ASSIGN_OR_RETURN(
        const Value* value,
        ElementAtLocked(call, object, element.name, &element.table));
    if (value == nullptr) continue;
    if (skip_unbound && value->IsNil()) continue;
    out.emplace_back(element.name, *value);
  }
  return out;
}

Result<GsObject*> TransactionManager::WorkingCopyLocked(Transaction* txn,
                                                        Oid oid) {
  auto it = txn->working_.find(oid.raw);
  if (it == txn->working_.end()) {
    GS_ASSIGN_OR_RETURN(const GsObject* permanent,
                        ViewLocked(txn, oid, kTimeNow));
    it = txn->working_.emplace(oid.raw, *permanent).first;
  }
  return &it->second;
}

Result<Value> TransactionManager::ReadNamed(Transaction* txn, Oid oid,
                                            SymbolId name, TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  ReadCall call{txn, at};
  GS_ASSIGN_OR_RETURN(const GsObject* object, ReadableLocked(call, oid));
  GS_ASSIGN_OR_RETURN(
      const Value* value,
      ElementAtLocked(&call, *object, name, object->NamedHistory(name)));
  return value ? *value : Value::Nil();
}

Status TransactionManager::WriteNamed(Transaction* txn, Oid oid, SymbolId name,
                                      Value value) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("write outside an active transaction");
  }
  GS_RETURN_IF_ERROR(CheckWriteAccess(txn, oid));
  GS_ASSIGN_OR_RETURN(GsObject* copy, WorkingCopyLocked(txn, oid));
  copy->WriteNamed(name, kTimeNow, std::move(value));
  txn->dirty_[oid.raw].named.insert(name);
  return Status::OK();
}

Result<Value> TransactionManager::ReadIndexed(Transaction* txn, Oid oid,
                                              std::size_t index, TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  ReadCall call{txn, at};
  GS_ASSIGN_OR_RETURN(const GsObject* object, ReadableLocked(call, oid));
  // The bounds check needs no tier trip: slot creation markers survive
  // truncation, so IndexedSizeAt stays exact at every time.
  const std::size_t size = object->IndexedSizeAt(at);
  if (index >= size) {
    return Status::OutOfRange("index " + std::to_string(index) +
                              " beyond size " + std::to_string(size));
  }
  GS_ASSIGN_OR_RETURN(
      const Value* value,
      ElementAtLocked(&call, *object, index, object->IndexedHistory(index)));
  return value ? *value : Value::Nil();
}

Status TransactionManager::WriteIndexed(Transaction* txn, Oid oid,
                                        std::size_t index, Value value) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("write outside an active transaction");
  }
  GS_RETURN_IF_ERROR(CheckWriteAccess(txn, oid));
  GS_ASSIGN_OR_RETURN(GsObject* copy, WorkingCopyLocked(txn, oid));
  copy->WriteIndexed(index, kTimeNow, std::move(value));
  // Gap slots materialized by an over-the-end write re-materialize on the
  // permanent object at commit (WriteIndexed grows with nil bindings), so
  // only the written slot needs a dirty mark.
  txn->dirty_[oid.raw].indexed.insert(index);
  return Status::OK();
}

Result<std::size_t> TransactionManager::AppendIndexed(Transaction* txn,
                                                      Oid oid, Value value) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("write outside an active transaction");
  }
  GS_RETURN_IF_ERROR(CheckWriteAccess(txn, oid));
  GS_ASSIGN_OR_RETURN(GsObject* copy, WorkingCopyLocked(txn, oid));
  const std::size_t index = copy->AppendIndexed(kTimeNow, std::move(value));
  txn->dirty_[oid.raw].indexed.insert(index);
  return index;
}

Result<std::size_t> TransactionManager::IndexedSize(Transaction* txn, Oid oid,
                                                    TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  GS_ASSIGN_OR_RETURN(const GsObject* object,
                      ReadableLocked(ReadCall{txn, at}, oid));
  return object->IndexedSizeAt(at);
}

Result<Oid> TransactionManager::ClassOfObject(Transaction* txn, Oid oid) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("read outside an active transaction");
  }
  GS_ASSIGN_OR_RETURN(const GsObject* object, ViewLocked(txn, oid, kTimeNow));
  return object->class_oid();
}

Result<std::vector<std::pair<SymbolId, Value>>> TransactionManager::ListNamed(
    Transaction* txn, Oid oid, TxnTime at, bool skip_unbound) {
  ReaderMutexLock lock(store_mu_);
  ReadCall call{txn, at};
  GS_ASSIGN_OR_RETURN(const GsObject* object, ReadableLocked(call, oid));
  return NamedAtLocked(&call, *object, skip_unbound);
}

Result<bool> TransactionManager::HasNamedValue(Transaction* txn, Oid oid,
                                               const Value& value,
                                               TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  ReadCall call{txn, at};
  GS_ASSIGN_OR_RETURN(const GsObject* object, ReadableLocked(call, oid));
  for (const NamedElement& element : object->named_elements()) {
    GS_ASSIGN_OR_RETURN(
        const Value* bound,
        ElementAtLocked(&call, *object, element.name, &element.table));
    if (bound != nullptr && !bound->IsNil() && *bound == value) return true;
  }
  return false;
}

Result<std::vector<Association>> TransactionManager::History(Transaction* txn,
                                                             Oid oid,
                                                             SymbolId name) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("read outside an active transaction");
  }
  const GsObject* object = memory_->Find(oid);
  if (object == nullptr) {
    return Status::NotFound("no such object: " + oid.ToString());
  }
  const AssociationTable* table = object->NamedHistory(name);
  if (table == nullptr) {
    return Status::NotFound("element never bound");
  }
  NoteHistoricalRead(oid);  // a history walk is time-dial traffic
  if (tiers_ != nullptr && object->history_floor() > kTimeOrigin) {
    // Merge the demoted prefix back in. Cold runs re-emit the creation
    // marker and carry-forward the resident table also keeps, so fold by
    // time — the duplicates are identical bindings by construction.
    tier_routed_reads_.Increment();
    GS_ASSIGN_OR_RETURN(
        std::vector<Association> cold,
        tiers_->NamedHistoryOf(oid, memory_->symbols().Name(name)));
    std::map<TxnTime, Value> merged;
    for (Association& a : cold) merged[a.time] = std::move(a.value);
    for (const Association& a : table->entries()) merged[a.time] = a.value;
    std::vector<Association> out;
    out.reserve(merged.size());
    for (auto& [time, value] : merged) {
      out.push_back(Association{time, std::move(value)});
    }
    return out;
  }
  return table->entries();
}

Result<bool> TransactionManager::DeepEquals(Transaction* txn, const Value& a,
                                            const Value& b, TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("read outside an active transaction");
  }
  ReadCall call{txn, at};
  std::unordered_map<std::uint64_t, std::uint64_t> assumed;
  return DeepEqualsLocked(&call, a, b, &assumed);
}

Result<bool> TransactionManager::DeepEqualsLocked(
    ReadCall* call, const Value& a, const Value& b,
    std::unordered_map<std::uint64_t, std::uint64_t>* assumed) {
  if (!a.IsRef() || !b.IsRef()) return a == b;
  if (a.ref() == b.ref()) return true;
  // Cycle handling: a pair already under comparison higher up is assumed
  // equal (coinductive structural equivalence).
  auto it = assumed->find(a.ref().raw);
  if (it != assumed->end() && it->second == b.ref().raw) return true;

  GS_ASSIGN_OR_RETURN(const GsObject* oa, ReadableLocked(*call, a.ref()));
  GS_ASSIGN_OR_RETURN(const GsObject* ob, ReadableLocked(*call, b.ref()));
  if (oa->class_oid() != ob->class_oid()) return false;
  // Bound (non-nil) named elements must correspond: by name, or — for a
  // set, whose member names are generated aliases — as unordered members.
  GS_ASSIGN_OR_RETURN(auto named_a, NamedAtLocked(call, *oa, true));
  GS_ASSIGN_OR_RETURN(auto named_b, NamedAtLocked(call, *ob, true));
  const std::size_t na = oa->IndexedSizeAt(call->at);
  if (named_a.size() != named_b.size() || na != ob->IndexedSizeAt(call->at)) {
    return false;
  }

  (*assumed)[a.ref().raw] = b.ref().raw;
  auto compare = [&]() -> Result<bool> {
    const GsClass* cls = memory_->classes().Get(oa->class_oid());
    if (cls != nullptr && cls->format() == ObjectFormat::kSet) {
      for (const auto& member_a : named_a) {
        bool found = false;
        for (const auto& member_b : named_b) {
          GS_ASSIGN_OR_RETURN(found, DeepEqualsLocked(call, member_a.second,
                                                      member_b.second,
                                                      assumed));
          if (found) break;
        }
        if (!found) return false;
      }
    } else {
      auto by_name = [](const auto& x, const auto& y) {
        return x.first < y.first;
      };
      std::sort(named_a.begin(), named_a.end(), by_name);
      std::sort(named_b.begin(), named_b.end(), by_name);
      for (std::size_t i = 0; i < named_a.size(); ++i) {
        if (named_a[i].first != named_b[i].first) return false;
        GS_ASSIGN_OR_RETURN(
            bool equal,
            DeepEqualsLocked(call, named_a[i].second, named_b[i].second,
                             assumed));
        if (!equal) return false;
      }
    }
    // Indexed elements compare positionally over the slots alive at `at`.
    for (std::size_t i = 0; i < na; ++i) {
      GS_ASSIGN_OR_RETURN(const Value* pa,
                          ElementAtLocked(call, *oa, i, oa->IndexedHistory(i)));
      // Copied: resolving `pb` may reuse the call's tier slot.
      const Value va = pa ? *pa : Value::Nil();
      GS_ASSIGN_OR_RETURN(const Value* pb,
                          ElementAtLocked(call, *ob, i, ob->IndexedHistory(i)));
      const Value vb = pb ? *pb : Value::Nil();
      GS_ASSIGN_OR_RETURN(bool equal,
                          DeepEqualsLocked(call, va, vb, assumed));
      if (!equal) return false;
    }
    return true;
  };
  Result<bool> equal = compare();
  assumed->erase(a.ref().raw);
  return equal;
}

std::vector<storage::tier::HistorySource::Candidate>
TransactionManager::DemotionCandidates(TxnTime boundary, std::size_t limit,
                                       std::uint64_t min_truncatable) {
  ReaderMutexLock lock(store_mu_);
  std::vector<Candidate> out;
  for (Oid oid : memory_->AllOids()) {
    const GsObject* object = memory_->Find(oid);
    if (object == nullptr) continue;
    const std::uint64_t truncatable = object->CountTruncatableBelow(boundary);
    if (truncatable == 0 || truncatable < min_truncatable) continue;
    Candidate candidate;
    candidate.oid = oid;
    candidate.truncatable = truncatable;
    candidate.historical_heat =
        engine_ != nullptr ? engine_->HistoricalHeatOf(oid) : 0.0;
    out.push_back(candidate);
  }
  // Coldest first — the compactor wants the history the time dial is NOT
  // visiting; ties break toward the biggest space win.
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.historical_heat != b.historical_heat) {
                return a.historical_heat < b.historical_heat;
              }
              if (a.truncatable != b.truncatable) {
                return a.truncatable > b.truncatable;
              }
              return a.oid < b.oid;
            });
  if (out.size() > limit) out.resize(limit);
  return out;
}

Result<std::vector<storage::tier::VersionRecord>>
TransactionManager::CollectHistory(Oid oid, TxnTime boundary) {
  ReaderMutexLock lock(store_mu_);
  const GsObject* object = memory_->Find(oid);
  if (object == nullptr) {
    return Status::NotFound("no such object: " + oid.ToString());
  }
  // Emit the bindings in (history_floor, boundary] — everything at or
  // below the floor is already durable in the tier (ApplyDemotion raises
  // the floor only after AppendRun committed), so re-emitting the kept
  // creation marker and carry-forward would give every run min_time ~=
  // the object's birth and defeat the store's time-range run pruning.
  // After a crash between the run flip and the truncation the floor is
  // still old, so the next pass re-emits the window — duplicates, never
  // a gap; resolution takes the max time <= T and compaction folds them.
  const TxnTime floor = object->history_floor();
  std::vector<storage::tier::VersionRecord> records;
  const SymbolTable& symbols = memory_->symbols();
  for (const NamedElement& element : object->named_elements()) {
    const std::string& name = symbols.Name(element.name);
    const bool alias = symbols.IsAlias(element.name);
    for (const Association& a : element.table.entries()) {
      if (a.time > boundary) break;
      if (a.time <= floor) continue;  // already cold
      storage::tier::VersionRecord record;
      record.oid = oid;
      record.kind = storage::tier::VersionRecord::kNamed;
      record.alias = alias;
      record.name = name;
      record.time = a.time;
      record.value = a.value;
      records.push_back(std::move(record));
    }
  }
  for (std::size_t i = 0; i < object->indexed_capacity(); ++i) {
    for (const Association& a : object->IndexedHistory(i)->entries()) {
      if (a.time > boundary) break;
      if (a.time <= floor) continue;  // already cold
      storage::tier::VersionRecord record;
      record.oid = oid;
      record.kind = storage::tier::VersionRecord::kIndexed;
      record.index = i;
      record.time = a.time;
      record.value = a.value;
      records.push_back(std::move(record));
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   storage::tier::RecordOrder);
  return records;
}

Status TransactionManager::ApplyDemotion(Oid oid, TxnTime boundary) {
  WriterMutexLock lock(store_mu_);
  GsObject* permanent = memory_->FindMutable(oid);
  if (permanent == nullptr) {
    return Status::NotFound("no such object: " + oid.ToString());
  }
  if (boundary <= permanent->history_floor() &&
      permanent->CountTruncatableBelow(boundary) == 0) {
    return Status::OK();
  }
  // Durability order: the truncated image reaches the primary device
  // before the resident copy changes. A crash on either side of the write
  // recovers to pre- or post-truncation — the demoted bindings are
  // already in the tier store either way, so reads never see a gap.
  GsObject truncated = *permanent;
  truncated.TruncateHistoryBelow(boundary);
  if (engine_ != nullptr) {
    GS_RETURN_IF_ERROR(
        engine_->CommitObjects({&truncated}, memory_->symbols()));
  }
  *permanent = std::move(truncated);
  // last_commit_ stays untouched: truncation changes no logical content,
  // so in-flight transactions must not see phantom conflicts from it.
  return Status::OK();
}

}  // namespace gemstone::txn
