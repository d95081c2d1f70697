#include "system.h"

#include <thread>

#include "txn/session.h"

namespace perfbench {

using gemstone::Result;
using gemstone::Status;
namespace storage = gemstone::storage;
namespace tier = gemstone::storage::tier;

namespace {
// 8 KiB tracks as gemstone_serve has them, but 16384 of them (its
// --tracks 16384) rather than the default 2048: a write to an account
// packed with others on a setup track moves it to a fresh track and the
// shared one stays allocated, so a full-length oltp_point run would fill
// the default platter.
constexpr gemstone::storage::TrackId kTracks = 16384;
constexpr std::size_t kTrackCapacity = 8192;
constexpr std::size_t kColdLevels = 3;
}  // namespace

System::System(SystemOptions opts) : options(opts) {}

System::~System() {
  Stop();
  // Recovered state first: it may share the tier store with the
  // original executor, whose symbol table the store decodes through.
  recovered.reset();
  recovered_engine.reset();
  recovered_disk.reset();
  server.reset();
  compactor.reset();
  setup_compactor.reset();
  executor.reset();
  tiers.reset();
  archive.reset();
  engine.reset();
  disk.reset();
}

Status System::Start() {
  if (options.disk) {
    disk = std::make_unique<storage::SimulatedDisk>(kTracks, kTrackCapacity,
                                                    0);
    engine = std::make_unique<storage::StorageEngine>(disk.get());
    GS_RETURN_IF_ERROR(engine->Format());
    GS_RETURN_IF_ERROR(engine->Open());
    executor = std::make_unique<gemstone::executor::Executor>(engine.get());
  } else {
    executor = std::make_unique<gemstone::executor::Executor>();
  }
  if (options.tiers) {
    tier::TierOptions topts;
    topts.cold_levels = kColdLevels;
    archive = std::make_unique<storage::ArchivalStore>();
    auto& transactions = executor->transactions();
    tiers = std::make_unique<tier::TierStore>(
        &transactions.memory().symbols(), archive.get(), topts);
    GS_RETURN_IF_ERROR(tiers->Format());
    transactions.AttachTierStore(tiers.get());
    compactor = std::make_unique<tier::TierCompactor>(tiers.get(),
                                                      &transactions);
    // Setup demotes eagerly: any object with 8 bindings to shed, every
    // account in one pass. With fewer objects per pass the cascade of
    // level merges leaves part of the history in the archive, and each
    // read of an archived run copies the whole run under the tier lock;
    // that made time_travel swing 2-3x between runs on a shared host.
    // The background compactor keeps the defaults.
    tier::CompactorOptions setup_opts;
    setup_opts.min_versions = 8;
    setup_opts.max_objects_per_pass = 1000;
    setup_compactor = std::make_unique<tier::TierCompactor>(
        tiers.get(), &transactions, setup_opts);
  }
  if (options.serve) {
    auth = std::make_unique<gemstone::admin::AuthorizationManager>();
    server = std::make_unique<gemstone::net::Server>(
        executor.get(), auth.get(), gemstone::net::ServerOptions{});
    GS_RETURN_IF_ERROR(server->Start());
  }
  return Status::OK();
}

void System::StartBackground() {
  if (compactor != nullptr && options.background_compactor) {
    compactor->Start();
  }
}

Status System::CompactToQuiescence() {
  if (setup_compactor == nullptr) return Status::OK();
  for (;;) {
    const auto start = NowNs();
    GS_ASSIGN_OR_RETURN(std::size_t demoted, setup_compactor->RunOncePass());
    pass_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    if (demoted == 0) return Status::OK();
  }
}

void System::Stop() {
  if (compactor != nullptr) compactor->Stop();
  if (server != nullptr) server->Stop();
}

Status System::RestartThreads() {
  Stop();
  server = std::make_unique<gemstone::net::Server>(
      executor.get(), auth.get(), gemstone::net::ServerOptions{});
  GS_RETURN_IF_ERROR(server->Start());
  StartBackground();
  return Status::OK();
}

Status System::CollectAccountOids(std::size_t accounts) {
  GS_ASSIGN_OR_RETURN(gemstone::SessionId session, executor->Login());
  account_oids.clear();
  for (std::size_t k = 0; k < accounts; ++k) {
    GS_ASSIGN_OR_RETURN(
        gemstone::Value v,
        executor->Execute(session, "Accounts at: " + std::to_string(k + 1)));
    if (!v.IsRef()) return Status::Internal("account is not an object");
    account_oids.push_back(v.ref());
  }
  return executor->Logout(session);
}

std::unique_ptr<storage::SimulatedDisk> System::CopyDisk() const {
  auto copy = std::make_unique<storage::SimulatedDisk>(
      disk->num_tracks(), disk->track_capacity(), 0);
  for (storage::TrackId t = 0; t < disk->num_tracks(); ++t) {
    auto bytes = disk->ReadTrack(t);
    if (bytes.ok() && !bytes.value().empty()) {
      (void)copy->WriteTrack(t, std::move(bytes).value());
    }
  }
  return copy;
}

std::uint64_t System::AllocatedBytes() const {
  if (disk == nullptr) return 0;
  std::uint64_t bytes =
      (disk->num_tracks() - engine->free_track_count()) *
      static_cast<std::uint64_t>(disk->track_capacity());
  if (tiers != nullptr) {
    const auto levels = tiers->LevelStats();
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const storage::SimulatedDisk* d = tiers->level_disk(i);
      bytes += (d->num_tracks() - levels[i].free_tracks) *
               static_cast<std::uint64_t>(d->track_capacity());
    }
    bytes += archive->run_bytes() + archive->total_bytes();
  }
  return bytes;
}

std::uint64_t System::TracksRead() const {
  if (disk == nullptr) return 0;
  std::uint64_t n = disk->stats().tracks_read;
  if (tiers != nullptr) {
    for (std::size_t i = 0; i < tiers->cold_levels(); ++i) {
      n += tiers->level_disk(i)->stats().tracks_read;
    }
  }
  return n;
}

namespace {

RecoveryReport RecoverOnce(System* system, storage::SimulatedDisk* disk,
                           Model* model, std::uint64_t seed) {
  RecoveryReport report;
  system->recovered.reset();
  system->recovered_engine.reset();
  // The original executor is abandoned, not destroyed: the tier store
  // decodes cold runs through the process's one symbol table, which in
  // this process belongs to the first executor.
  const std::uint64_t start = NowNs();
  system->recovered_engine = std::make_unique<storage::StorageEngine>(disk);
  Status opened = system->recovered_engine->Open();
  if (!opened.ok()) {
    report.error = "engine open: " + opened.ToString();
    return report;
  }
  auto recovered =
      gemstone::executor::Executor::Recover(system->recovered_engine.get());
  if (!recovered.ok()) {
    report.error = "recover: " + recovered.status().ToString();
    return report;
  }
  system->recovered = std::move(recovered).value();
  gemstone::executor::Executor& ex = *system->recovered;
  if (system->tiers != nullptr) {
    Status tiers_ok = system->tiers->Open();
    if (!tiers_ok.ok()) {
      report.error = "tier open: " + tiers_ok.ToString();
      return report;
    }
    ex.transactions().AttachTierStore(system->tiers.get());
  }
  const double rebuilt_s = static_cast<double>(NowNs() - start) * 1e-9;
  report.objects_per_s =
      static_cast<double>(system->recovered_engine->CatalogOids().size()) /
      rebuilt_s;

  auto session_id = ex.Login();
  if (!session_id.ok()) {
    report.error = "login: " + session_id.status().ToString();
    return report;
  }
  gemstone::txn::Session* session = ex.session(session_id.value());
  const gemstone::SymbolId balance = ex.memory().symbols().Intern("balance");
  auto mismatch = [&](std::size_t k, const char* what, std::uint64_t at,
                      const Result<gemstone::Value>& got,
                      std::int64_t want) {
    report.error = std::string(what) + " balance of account " +
                   std::to_string(k + 1) + " at " + std::to_string(at) +
                   " is " +
                   (got.ok() ? (got.value().IsInteger()
                                    ? std::to_string(got.value().integer())
                                    : "a non-integer")
                             : got.status().ToString()) +
                   ", acknowledged " + std::to_string(want);
  };
  // Every acknowledged final balance survives.
  for (std::size_t k = 0; k < model->accounts(); ++k) {
    const std::int64_t want = model->account(k).acked.load();
    auto got = session->ReadNamed(system->account_oids[k], balance);
    ++report.checked;
    if (!got.ok() || !got.value().IsInteger() ||
        got.value().integer() != want) {
      mismatch(k, "final", 0, got, want);
      return report;
    }
  }
  // A seeded sample of past balances is still addressable.
  Rng rng(seed ^ 0x7ec07e7aull);
  for (int i = 0; i < 256; ++i) {
    const std::size_t k = rng.Below(model->accounts());
    AccountModel& a = model->account(k);
    Version v;
    {
      std::lock_guard<std::mutex> lock(a.mu);
      v = a.versions[rng.Below(a.versions.size())];
    }
    auto got = session->ReadNamedAt(system->account_oids[k], balance, v.time);
    ++report.checked;
    if (!got.ok() || !got.value().IsInteger() ||
        got.value().integer() != v.value) {
      mismatch(k, "historical", v.time, got, v.value);
      return report;
    }
  }
  (void)ex.Logout(session_id.value());
  report.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  report.ok = true;
  return report;
}

}  // namespace

RecoveryReport RecoverAndVerify(System* system,
                                std::unique_ptr<storage::SimulatedDisk> from,
                                Model* model, std::uint64_t seed,
                                int repeats) {
  system->Stop();
  storage::SimulatedDisk* disk =
      from != nullptr ? from.get() : system->disk.get();
  system->recovered_disk = std::move(from);
  std::vector<double> seconds, objects_per_s;
  RecoveryReport report;
  for (int i = 0; i < repeats; ++i) {
    // Each repeat on a fresh thread: on a shared VM the vCPU a thread
    // lands on moved one recovery's time by 1.6x, so the median should
    // sample several placements rather than the main thread's one.
    std::thread worker(
        [&] { report = RecoverOnce(system, disk, model, seed); });
    worker.join();
    if (!report.ok) return report;
    seconds.push_back(report.seconds);
    objects_per_s.push_back(report.objects_per_s);
  }
  report.each_seconds = seconds;
  report.seconds = Median(seconds);
  report.objects_per_s = Median(objects_per_s);
  return report;
}

Status WireConn::Open(std::uint16_t port) {
  GS_RETURN_IF_ERROR(client_.Connect(port));
  return client_.Login().status();
}

Result<std::string> WireConn::Execute(const std::string& src) {
  return client_.Execute(src);
}

Result<std::string> WireConn::Stdm(const std::string& query) {
  return client_.Stdm(query);
}

Result<std::uint64_t> WireConn::Commit() {
  auto committed = client_.Commit();
  Status begun = client_.Begin();
  if (!committed.ok()) return committed.status();
  if (!begun.ok()) return begun;
  return committed;
}

Status LocalConn::Open(gemstone::executor::Executor* executor) {
  executor_ = executor;
  GS_ASSIGN_OR_RETURN(session_, executor->Login());
  return Status::OK();
}

Result<std::string> LocalConn::Execute(const std::string& src) {
  return executor_->ExecuteToString(session_, src);
}

Result<std::string> LocalConn::Stdm(const std::string& query) {
  return executor_->ExecuteStdm(session_, query);
}

Result<std::uint64_t> LocalConn::Commit() {
  gemstone::txn::Session* s = executor_->session(session_);
  Status committed = s->Commit();
  const std::uint64_t now = executor_->transactions().Now();
  Status begun = s->Begin();
  if (!committed.ok()) return committed;
  if (!begun.ok()) return begun;
  return now;
}

}  // namespace perfbench
