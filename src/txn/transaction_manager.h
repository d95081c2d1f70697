#ifndef GEMSTONE_TXN_TRANSACTION_MANAGER_H_
#define GEMSTONE_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "core/annotations.h"
#include "core/result.h"
#include "core/sync.h"
#include "object/object_memory.h"
#include "storage/storage_engine.h"
#include "storage/tier/history_source.h"
#include "telemetry/metrics.h"
#include "txn/transaction.h"

namespace gemstone::storage::tier {
class TierStore;
}  // namespace gemstone::storage::tier

namespace gemstone::txn {

/// Thin snapshot of the manager's telemetry counters (`txn.*`). Commit
/// latency percentiles live in the registry histogram
/// `txn.commit_latency_us`.
///
/// Concurrency: stats() is lock-free and may run while commits are in
/// flight. Each field is individually monotonic, and these cross-field
/// invariants hold in every snapshot, however it interleaves with
/// writers:
///
///   conflicts + commit_storage_failures <= aborted
///   aborted + committed                 <= begun
///
/// The guarantee comes from an explicit ordering discipline rather than a
/// lock: writers (already serialized by the manager's store lock)
/// increment the implied counter first (begun, then aborted/committed,
/// then the abort-cause counter) and give the *last* increment release
/// order; stats() loads in the reverse order, cause counters first with
/// acquire. Observing a cause therefore implies observing its abort, and
/// observing an outcome implies observing its begin.
struct TxnStats {
  std::uint64_t begun = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t conflicts = 0;  // aborts caused by validation failure
  std::uint64_t commit_storage_failures = 0;  // aborts from the safe write
};

/// The shared Transaction Manager (§6): "handles concurrent use of the
/// permanent database in an optimistic manner", plus the per-session data
/// access interface of the Object Manager.
///
/// Concurrency model: readers hold a shared lock per operation; Commit
/// holds the unique lock while it validates (backward validation at
/// object granularity: any object read or written whose last commit time
/// exceeds the transaction's start time is a conflict), stages each dirty
/// object's post-commit image beside the store, and — when a
/// StorageEngine is attached — performs the safe group write *before*
/// publishing anything: the staged images fold into the permanent store,
/// and `last_commit_` / the clock advance, only after the root flip
/// succeeds. Every failure path leaves the transaction aborted and
/// ObjectMemory, `last_commit_`, and the clock exactly as they were.
///
/// All element access from sessions goes through this class so that no
/// raw object pointer outlives its lock scope.
///
/// As the storage::tier::HistorySource it is also the compaction thread's
/// window onto live history: candidates are ranked by the engine's
/// historical-channel heat, CollectHistory emits an object's cold prefix,
/// and ApplyDemotion truncates the resident copy — durably — after the
/// tier store has the records. Once an object's history floor rises,
/// time-dial reads below it route through the attached TierStore (the
/// tier mutex ranks directly inside store_mu_, so resolution nests
/// cleanly under the reader lock).
class TransactionManager : public storage::tier::HistorySource {
 public:
  /// `engine`, when non-null, must be open; every commit then also writes
  /// the changed objects durably before publishing them.
  explicit TransactionManager(ObjectMemory* memory,
                              storage::StorageEngine* engine = nullptr);

  ObjectMemory& memory() { return *memory_; }

  /// Installs an authorization policy; every subsequent read and write is
  /// checked against the transaction's user. Null disables checks.
  void set_access_controller(const AccessController* access) {
    access_ = access;
  }

  /// Attaches the levelled history store: reads at times below an
  /// object's history floor resolve through it, and the compactor's
  /// HistorySource calls start demoting into it. Wire before sessions
  /// start; null detaches (only safe while no object has a raised floor).
  void AttachTierStore(storage::tier::TierStore* tiers) { tiers_ = tiers; }
  storage::tier::TierStore* tier_store() const { return tiers_; }

  // --- HistorySource (the compaction thread's view of live history) --------

  /// SafeTime: every binding at or below it is final.
  TxnTime SafeDemotionBoundary() const override { return clock_.load(); }

  std::vector<Candidate> DemotionCandidates(
      TxnTime boundary, std::size_t limit,
      std::uint64_t min_truncatable) override;

  Result<std::vector<storage::tier::VersionRecord>> CollectHistory(
      Oid oid, TxnTime boundary) override;

  Status ApplyDemotion(Oid oid, TxnTime boundary) override;

  // --- Lifecycle -------------------------------------------------------------

  std::unique_ptr<Transaction> Begin(SessionId session,
                                     UserId user = kDbaUser);

  /// Validates and publishes. On kTransactionConflict the transaction is
  /// aborted (workspace discarded) — the caller retries with a new Begin.
  Status Commit(Transaction* txn);

  Status Abort(Transaction* txn);

  /// The logical clock: time of the latest commit.
  TxnTime Now() const { return clock_.load(); }

  /// §5.4: "the most recent state for which no currently running
  /// transaction can make changes." Commits are atomic under the store
  /// lock and always stamp a time greater than the current clock, so the
  /// clock itself is safe: a read-only transaction pinned at SafeTime can
  /// never be invalidated.
  TxnTime SafeTime() const { return clock_.load(); }

  TxnStats stats() const;

  /// The objects that caused the most validation conflicts, hottest
  /// first: (raw oid, conflict count) pairs, at most `top_n`. This is the
  /// per-object contention evidence the MVCC plan (ROADMAP item 1) needs
  /// — which objects would still serialize under finer concurrency
  /// control. Bounded: only the first kConflictHotspotCap distinct
  /// objects are tracked (`txn.conflict_oids_dropped` counts the rest).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ConflictHotspots(
      std::size_t top_n = 10) const;

  /// Recovery support: restores the logical clock to the largest commit
  /// time found in a recovered image. Call before any Begin.
  void RestoreClock(TxnTime t) { clock_.store(t); }

  // --- Object Manager data interface ----------------------------------------

  /// Creates a new object in the workspace; it becomes visible to others
  /// only at commit. The identity is permanent from this moment (§5.4).
  Result<Oid> CreateObject(Transaction* txn, Oid class_oid);

  /// Reads `oid`'s element `name` at `at` (kTimeNow = the transaction's
  /// own view: workspace first, then the committed current state). Reads
  /// at now join the read set that Commit validates; reads of past states
  /// are not recorded — history is immutable and cannot conflict. Every
  /// read below follows the same rule (ReadableLocked).
  Result<Value> ReadNamed(Transaction* txn, Oid oid, SymbolId name,
                          TxnTime at = kTimeNow);

  Status WriteNamed(Transaction* txn, Oid oid, SymbolId name, Value value);

  Result<Value> ReadIndexed(Transaction* txn, Oid oid, std::size_t index,
                            TxnTime at = kTimeNow);
  Status WriteIndexed(Transaction* txn, Oid oid, std::size_t index,
                      Value value);
  Result<std::size_t> AppendIndexed(Transaction* txn, Oid oid, Value value);
  Result<std::size_t> IndexedSize(Transaction* txn, Oid oid,
                                  TxnTime at = kTimeNow);

  /// The object's class (identity-stable over time).
  Result<Oid> ClassOfObject(Transaction* txn, Oid oid);

  /// Snapshot of all named elements visible at `at`. When `skip_unbound`
  /// is true, elements whose value is nil are omitted (set iteration).
  Result<std::vector<std::pair<SymbolId, Value>>> ListNamed(
      Transaction* txn, Oid oid, TxnTime at = kTimeNow,
      bool skip_unbound = true);

  /// Whether some named element of `oid` is bound at `at` to a non-nil
  /// value equal to `value` — a Set's membership test. Reads the object
  /// as ListNamed does, but compares each value in place and stops at the
  /// first match instead of copying every member out.
  Result<bool> HasNamedValue(Transaction* txn, Oid oid, const Value& value,
                             TxnTime at = kTimeNow);

  /// Full history of one element (committed state only).
  Result<std::vector<Association>> History(Transaction* txn, Oid oid,
                                           SymbolId name);

  /// Structural equivalence of two values at `at` (§4.2). Every object
  /// the comparison visits is read exactly as ReadNamed reads it: access
  /// checked, recorded at now, tier-resolved below its history floor.
  Result<bool> DeepEquals(Transaction* txn, const Value& a, const Value& b,
                          TxnTime at = kTimeNow);

 private:
  /// One data-interface read call: the transaction, the time it reads
  /// at, and whether the tier store has answered any element of it yet —
  /// `txn.tier_routed_reads` counts each such call once. `tier_value`
  /// holds the latest tier answer; ElementAtLocked points into it.
  struct ReadCall {
    Transaction* txn;
    TxnTime at;
    bool tier_counted = false;
    Value tier_value{};
  };

  /// An element of one object: a named element by symbol, or an indexed
  /// slot by position.
  using ElementKey = std::variant<SymbolId, std::size_t>;

  /// `oid` as `txn` sees it (workspace copy if present at now, else
  /// permanent), without access checks or accounting. NotFound, or
  /// Unavailable once archived. Caller holds store_mu_ (at least shared).
  Result<const GsObject*> ViewLocked(Transaction* txn, Oid oid, TxnTime at)
      const GS_REQUIRES_SHARED(store_mu_);

  /// The read path every element read shares: the active check, the read
  /// access check, the view lookup, then the accounting — a read-set
  /// insert at now, or one time-dial read for a past time.
  Result<const GsObject*> ReadableLocked(const ReadCall& call, Oid oid)
      GS_REQUIRES_SHARED(store_mu_);

  /// The value of `object`'s element `key` at `call->at`; null = not
  /// bound then. The one place that decides between the resident table
  /// and the tier store: below the object's history floor the resident
  /// table keeps only the creation marker and carry-forward, so the level
  /// resolver answers, and its errors reach the caller. `resident` is the
  /// element's resident history (null when the object never bound it):
  /// callers walking an object's elements already hold it, and a named
  /// lookup is a linear scan, so the resolver does not repeat it.
  ///
  /// The pointer is valid until the next call on `call` (a tier answer
  /// lives in `call->tier_value`); copy before resolving again. It is a
  /// pointer, and the tier half is TierElementLocked, so this stays small
  /// enough to inline: a set's `add:` visits every member, and a per-member
  /// Value copy or call here doubled the cost of that walk.
  Result<const Value*> ElementAtLocked(
      ReadCall* call, const GsObject& object, ElementKey key,
      const AssociationTable* resident) GS_REQUIRES_SHARED(store_mu_);

  /// ElementAtLocked's tier half: counts the call's first tier answer
  /// and resolves `key` through the level store into `call->tier_value`.
  Result<const Value*> TierElementLocked(ReadCall* call,
                                         const GsObject& object,
                                         ElementKey key)
      GS_REQUIRES_SHARED(store_mu_);

  /// `object`'s named elements bound at `call->at`, in element order; nil
  /// values are dropped when `skip_unbound` is set.
  Result<std::vector<std::pair<SymbolId, Value>>> NamedAtLocked(
      ReadCall* call, const GsObject& object, bool skip_unbound)
      GS_REQUIRES_SHARED(store_mu_);

  /// Copy-on-first-write into the workspace. Caller holds store_mu_.
  Result<GsObject*> WorkingCopyLocked(Transaction* txn, Oid oid)
      GS_REQUIRES_SHARED(store_mu_);

  Result<bool> DeepEqualsLocked(
      ReadCall* call, const Value& a, const Value& b,
      std::unordered_map<std::uint64_t, std::uint64_t>* assumed)
      GS_REQUIRES_SHARED(store_mu_);

  /// Backward validation for one accessed object: true when it committed
  /// after `txn` started (created objects are invisible to others and
  /// never conflict). Commit-path only; validation only reads
  /// `last_commit_`, so a read-only commit may run it under the shared
  /// lock.
  bool HasConflictLocked(const Transaction& txn, std::uint64_t raw) const
      GS_REQUIRES_SHARED(store_mu_);

  /// Aborts `txn` because `raw` changed since it started: flips state,
  /// bumps the abort/conflict counters, tallies the hotspot, records the
  /// flight event, and returns the conflict status.
  Status AbortConflictedLocked(Transaction* txn, std::uint64_t raw,
                               const char* what) GS_REQUIRES(store_mu_);

  /// Tracks the high-water mark of any transaction's read set
  /// (`txn.read_set_peak`): evidence for how much validation state
  /// long-lived mutating sessions accumulate. Snapshot-pinned reads
  /// resolve at a past time and record nothing, so they never move this.
  void NoteReadRecorded(const Transaction& txn);

  /// Accounts one time-dial read: bumps `txn.historical_reads` and, when
  /// an engine is attached, deposits historical heat on `oid`'s extent
  /// tracks (see StorageEngine::NoteHistoricalObjectAccess) — history
  /// served from memory still shows up on the heatmap's time-dial side.
  void NoteHistoricalRead(Oid oid) GS_REQUIRES_SHARED(store_mu_);

  /// Authorization hooks: a transaction's own created objects are always
  /// accessible (they join a segment only after publication).
  Status CheckReadAccess(const Transaction* txn, Oid oid) const;
  Status CheckWriteAccess(const Transaction* txn, Oid oid) const;

  ObjectMemory* memory_;
  storage::StorageEngine* engine_;
  storage::tier::TierStore* tiers_ = nullptr;
  const AccessController* access_ = nullptr;

  mutable SharedMutex store_mu_{LockRank::kTxnStore, "txn.store_mu"};
  std::atomic<TxnTime> clock_{0};
  std::unordered_map<std::uint64_t, TxnTime> last_commit_
      GS_GUARDED_BY(store_mu_);

  /// Per-object conflict tally, maintained on the (already exclusive)
  /// commit validation path. Bounded so a pathological workload cannot
  /// grow it without limit.
  static constexpr std::size_t kConflictHotspotCap = 4096;
  std::unordered_map<std::uint64_t, std::uint64_t> conflict_by_oid_
      GS_GUARDED_BY(store_mu_);

  /// Largest read set any transaction has accumulated (relaxed max).
  std::atomic<std::uint64_t> read_set_peak_{0};

  telemetry::Counter begun_;
  telemetry::Counter committed_;
  telemetry::Counter aborted_;
  telemetry::Counter conflicts_;
  telemetry::Counter commit_storage_failures_;
  telemetry::Counter historical_reads_;
  telemetry::Counter tier_routed_reads_;  // read calls the tier answered
  telemetry::Histogram* commit_latency_us_;  // registry-owned
  telemetry::Registration telemetry_;  // after the counters it samples
};

}  // namespace gemstone::txn

#endif  // GEMSTONE_TXN_TRANSACTION_MANAGER_H_
