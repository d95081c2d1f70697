// The system under test, wired the way tools/gemstone_serve wires it: a
// SimulatedDisk + StorageEngine behind an Executor, optionally the
// levelled tier store with its background compactor, and a net::Server
// at its default options on an ephemeral loopback port.
#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "admin/authorization.h"
#include "core/ids.h"
#include "executor/executor.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/archival_store.h"
#include "storage/simulated_disk.h"
#include "storage/storage_engine.h"
#include "storage/tier/compactor.h"
#include "storage/tier/tier_store.h"
#include "workload.h"

namespace perfbench {

struct SystemOptions {
  bool disk = true;    // false: a purely in-memory Executor
  bool tiers = false;  // the levelled tier store (3 cold levels)
  bool serve = true;   // a net::Server in front of the executor
  /// Run the compactor thread at its default cadence while serving.
  bool background_compactor = true;
};

class System {
 public:
  explicit System(SystemOptions options);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  gemstone::Status Start();
  /// Starts the background compactor (after setup).
  void StartBackground();
  /// Drives a setup compactor's RunOncePass until a pass demotes nothing
  /// (no-op without tiers). Every pass's duration lands in `pass_ms`.
  gemstone::Status CompactToQuiescence();
  /// Stops the compactor thread and the server (draining in-flight work).
  void Stop();
  /// Stops, then starts a fresh server (on a new port) and the compactor
  /// thread: new event-loop, worker and compactor threads. Clients must
  /// reconnect.
  gemstone::Status RestartThreads();

  /// The oid of every account, looked up in process after setup.
  gemstone::Status CollectAccountOids(std::size_t accounts);

  /// Copy of the primary platter as it is now (the drop-write fixture
  /// recovers from it, losing every write made after the copy).
  std::unique_ptr<gemstone::storage::SimulatedDisk> CopyDisk() const;

  /// Bytes of allocated tracks on every platter (L0 and the cold levels)
  /// plus the archive's stored runs.
  std::uint64_t AllocatedBytes() const;

  /// Tracks read so far on L0 and every cold level.
  std::uint64_t TracksRead() const;

  std::uint16_t port() const { return server ? server->port() : 0; }

  SystemOptions options;
  std::unique_ptr<gemstone::storage::SimulatedDisk> disk;
  std::unique_ptr<gemstone::storage::StorageEngine> engine;
  std::unique_ptr<gemstone::executor::Executor> executor;
  std::unique_ptr<gemstone::storage::ArchivalStore> archive;
  std::unique_ptr<gemstone::storage::tier::TierStore> tiers;
  std::unique_ptr<gemstone::storage::tier::TierCompactor> compactor;
  std::unique_ptr<gemstone::storage::tier::TierCompactor> setup_compactor;
  std::unique_ptr<gemstone::admin::AuthorizationManager> auth;
  std::unique_ptr<gemstone::net::Server> server;
  std::vector<gemstone::Oid> account_oids;
  std::vector<double> pass_ms;

  // Filled by RecoverAndVerify.
  std::unique_ptr<gemstone::storage::SimulatedDisk> recovered_disk;
  std::unique_ptr<gemstone::storage::StorageEngine> recovered_engine;
  std::unique_ptr<gemstone::executor::Executor> recovered;
};

/// Crash + recovery: rebuilds an Executor from `from` (the system's own
/// primary platter when null), re-opens the tier store when the system
/// has one, and checks every account's final balance plus a seeded
/// sample of historical balances against the model. Recovers `repeats`
/// times from the same platters and reports the median time.
struct RecoveryReport {
  bool ok = false;
  std::string error;
  double seconds = 0;
  std::vector<double> each_seconds;  // every repeat, in order
  double objects_per_s = 0;
  std::uint64_t checked = 0;
};
RecoveryReport RecoverAndVerify(
    System* system, std::unique_ptr<gemstone::storage::SimulatedDisk> from,
    Model* model, std::uint64_t seed, int repeats);

/// A session over the wire.
class WireConn : public Conn {
 public:
  gemstone::Status Open(std::uint16_t port);
  gemstone::Result<std::string> Execute(const std::string& src) override;
  gemstone::Result<std::string> Stdm(const std::string& query) override;
  gemstone::Result<std::uint64_t> Commit() override;
  gemstone::net::Client& client() { return client_; }

 private:
  gemstone::net::Client client_;
};

/// A session in process, on the system's Executor.
class LocalConn : public Conn {
 public:
  gemstone::Status Open(gemstone::executor::Executor* executor);
  gemstone::Result<std::string> Execute(const std::string& src) override;
  gemstone::Result<std::string> Stdm(const std::string& query) override;
  gemstone::Result<std::uint64_t> Commit() override;
  gemstone::SessionId session() const { return session_; }

 private:
  gemstone::executor::Executor* executor_ = nullptr;
  gemstone::SessionId session_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
