#ifndef GEMSTONE_EXECUTOR_EXECUTOR_H_
#define GEMSTONE_EXECUTOR_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/annotations.h"
#include "core/result.h"
#include "core/sync.h"
#include "index/directory.h"
#include "object/object_memory.h"
#include "opal/compiler.h"
#include "opal/interpreter.h"
#include "stdm/calculus.h"
#include "stdm/stdm_value.h"
#include "storage/storage_engine.h"
#include "telemetry/trace.h"
#include "txn/session.h"
#include "txn/transaction_manager.h"

namespace gemstone::executor {

/// The Executor (§6): "responsible for controlling sessions in the
/// GemStone system on behalf of users on host machines ... receiving
/// blocks of code, returning results and error messages. It maintains a
/// Compiler and Interpreter for each active user."
///
/// The network link of the paper's deployment is replaced by an
/// in-process API with the same unit of communication: a block of OPAL
/// source in, a result (or error Status) out.
///
/// When constructed over a StorageEngine, commits persist through the
/// Boxer/Linker/CommitManager pipeline, and `Recover` rebuilds the full
/// image — objects, logical clock, user classes and their recompiled
/// methods — from the platters.
///
/// Threading: the session table is internally synchronized, so
/// Login/Logout and per-session calls may arrive from different threads
/// concurrently. Calls *within* one session are not — the caller (the
/// gateway's per-connection FIFO, or a single-threaded embedder) must
/// never run two operations on the same SessionId at once, and must not
/// Logout a session with an operation in flight. Raw Session/Interpreter
/// pointers stay valid until that session's Logout: the map guarantees
/// element stability across inserts, and entries are only destroyed by
/// Logout.
class Executor {
 public:
  /// Purely in-memory system.
  Executor();

  /// Durable system over an opened engine (Format/Open already done).
  explicit Executor(storage::StorageEngine* engine);

  /// Rebuilds an Executor from a recovered engine: loads every cataloged
  /// object, replays the schema (class definitions and method sources)
  /// and restores the commit clock.
  static Result<std::unique_ptr<Executor>> Recover(
      storage::StorageEngine* engine);

  // --- Sessions ---------------------------------------------------------------

  /// Opens a session (its own Interpreter and transaction workspace, §6)
  /// and begins its first transaction. `user` is the identity every
  /// authorization check runs against when an AccessController is set on
  /// the TransactionManager.
  Result<SessionId> Login(UserId user = kDbaUser);

  /// Ends a session, aborting any open transaction.
  Status Logout(SessionId session);

  /// Compiles and runs one block of OPAL source in the session, answering
  /// the block's value.
  Result<Value> Execute(SessionId session, std::string_view source);

  /// As Execute, but renders the result with printString semantics —
  /// what a host terminal would display.
  Result<std::string> ExecuteToString(SessionId session,
                                      std::string_view source);

  /// Runs a §5.1 set-calculus query: parses `query_text`, translates it
  /// to set algebra, binds free variables from the globals at the
  /// session's effective time (a time-dialed session queries the past
  /// state), executes the plan, and renders the result set.
  Result<std::string> ExecuteStdm(SessionId session,
                                  std::string_view query_text);

  /// EXPLAIN (and with `analyze`, EXPLAIN ANALYZE) for a §5.1 set-calculus
  /// query: parses `query_text`, translates it to set algebra, and renders
  /// the operator tree. Free variables resolve from the globals and export
  /// at the session's effective time, so a time-dialed session explains
  /// the plan over the past state it would query. With `analyze` the plan
  /// runs and every operator line carries measured in/out cardinalities,
  /// exclusive time, and attributed disk track reads/writes/seeks.
  Result<std::string> ExplainStdm(SessionId session,
                                  std::string_view query_text, bool analyze);

  // --- Request execution --------------------------------------------------------

  /// What a request does, as far as choosing how it runs goes. The gateway
  /// maps each wire message type to one of these.
  enum class RequestKind : std::uint8_t {
    kQuery,   // OPAL block, set-calculus query or EXPLAIN
    kDial,    // time-dial change
    kCommit,  // commit of the session's transaction
    kOther,   // login, logout, begin, abort and anything else
  };

  /// Which legs one RunRequest took, and how long it waited for the lock.
  struct RunLegs {
    bool read_path = false;  // tried on the snapshot read path
    bool retried = false;    // bounced kReadOnlyRetry, reran under the lock
    std::uint64_t lock_wait_ns = 0;  // blocked on the writer lock
  };

  /// Runs one request of `session` (0: none logged in) by calling `body`,
  /// and answers the status of its last call. The one place that decides
  /// how a request runs (DESIGN.md §12):
  ///  - A query, dial or commit of an eligible session runs first on the
  ///    snapshot read path, without the writer lock. Eligible: the time
  ///    dial is set or the transaction has recorded nothing; a commit only
  ///    when it has recorded nothing. A query there runs pinned to
  ///    SafeTime unless a dial already fixes its view.
  ///  - Everything else runs `body` under the writer lock, and so does a
  ///    pinned query once more when its first call answers kReadOnlyRetry
  ///    (the code turned out to write; the bounce never reaches the caller).
  /// `on_lock(false)` fires just before blocking on the writer lock and
  /// `on_lock(true)` once it is held, so a caller can show the wait live.
  template <typename Body, typename OnLock>
  Status RunRequest(SessionId session, RequestKind kind, Body&& body,
                    OnLock&& on_lock, RunLegs* legs) {
    if (txn::Session* s = ReadPathSession(session, kind)) {
      legs->read_path = true;
      std::optional<txn::SnapshotPin> pin;  // released before the lock
      if (kind == RequestKind::kQuery && !s->DialSet()) {
        pin.emplace(s, transactions_.SafeTime());
      }
      const Status status = body();
      if (!status.IsReadOnlyRetry()) return status;
      legs->retried = true;
    }
    on_lock(false);
    const std::uint64_t wait_start_ns = telemetry::TraceNowNs();
    MutexLock lock(writer_mu_);
    legs->lock_wait_ns = telemetry::TraceNowNs() - wait_start_ns;
    on_lock(true);
    return body();
  }

  // --- Schema persistence -----------------------------------------------------

  /// Persists user class definitions + method sources into the system
  /// object (they ride the ordinary commit pipeline). Call after schema
  /// changes when durability matters.
  Status SaveSchema(SessionId session);

  // --- Introspection ----------------------------------------------------------

  ObjectMemory& memory() { return memory_; }
  txn::TransactionManager& transactions() { return transactions_; }
  index::DirectoryManager& directories() { return directories_; }
  opal::GlobalEnv& globals() { return globals_; }
  txn::Session* session(SessionId id);
  opal::Interpreter* interpreter(SessionId id);
  /// Safe to call from any thread: monitors observe the gateway tearing
  /// sessions down concurrently, so the count is a release/acquire atomic
  /// rather than a read of the (unsynchronized) session table.
  std::size_t active_sessions() const {
    return session_count_.load(std::memory_order_acquire);
  }

 private:
  struct SessionEntry {
    std::unique_ptr<txn::Session> session;
    std::unique_ptr<opal::Interpreter> interpreter;
  };

  void Bootstrap();

  /// The session when a `kind` request of it may run on the snapshot read
  /// path, else null. Decided outside any lock: only the caller serving
  /// this session mutates that state, so the answer cannot go stale.
  txn::Session* ReadPathSession(SessionId id, RequestKind kind);

  /// Resolves each named free variable from the globals and exports its
  /// object graph at the session's effective time; `exported` keeps the
  /// values' addresses stable for the Bindings.
  Status BindFreeVariables(txn::Session* s,
                           const std::vector<std::string>& names,
                           std::deque<stdm::StdmValue>* exported,
                           stdm::Bindings* free);

  /// Serializes user classes (names, superclasses, formats, instance
  /// variables, method sources) for schema recovery.
  std::string EncodeSchema() const;
  Status DecodeSchema(const std::string& blob);

  ObjectMemory memory_;
  opal::GlobalEnv globals_;
  index::DirectoryManager directories_;
  txn::TransactionManager transactions_;

  /// Serializes every request RunRequest does not run on the snapshot
  /// read path: mutating OPAL, transaction control, login and logout. The
  /// shared structures below are internally synchronized, so read-path
  /// requests skip it; it is the serialization point for writers.
  Mutex writer_mu_{LockRank::kExecutorWriter, "executor.writer_mu"};

  std::atomic<SessionId> next_session_{1};
  mutable SharedMutex sessions_mu_{LockRank::kExecutorSessions,
                                   "executor.sessions_mu"};
  std::unordered_map<SessionId, SessionEntry> sessions_
      GS_GUARDED_BY(sessions_mu_);
  std::atomic<std::size_t> session_count_{0};
};

}  // namespace gemstone::executor

#endif  // GEMSTONE_EXECUTOR_EXECUTOR_H_
