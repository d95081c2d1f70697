// gsbench: hosts a net::Server over a disk-backed Executor in
// this process and drives it over loopback from two client threads.
//
//   gsbench --workload oltp_point --seed 1 --seconds 25 --trace 0
//           [--tiny] [--inject-bug model]
//
// --trace 0 measures the end-to-end metrics (closed loop, open loop at
// the workload's fixed rate, a one-client probe of the op types the mix
// lacks, then a crash and recovery); --trace 1 measures the per-layer
// metrics (the concurrent run's stage histograms and counters plus the
// layer ladder).
// The last line of stdout is the JSON result. perfbench/run.py builds the
// binary; see perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lock_rank.h"
#include "ladder.h"
#include "system.h"
#include "telemetry/metrics.h"
#include "telemetry/observatory.h"
#include "util.h"
#include "workload.h"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif
#ifndef PB_CXX_FLAGS
#define PB_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

using gemstone::Status;

constexpr int kClients = 2;
constexpr std::uint64_t kWindowNs = 250'000'000;
// The measured phases run in this many interleaved rounds; a latency is
// the median of its per-round values.
constexpr int kRounds = 10;

struct Args {
  std::string workload_name;
  Workload workload = Workload::kOltpPoint;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string bug = "none";  // none | model | drop-write
  std::string out_dir = ".bench_build/perfbench/out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

int Usage() {
  std::fprintf(stderr,
               "usage: gsbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       [--tiny] [--inject-bug none|model|drop-write] "
               "[--out-dir DIR]\n"
               "       [--git-sha SHA] [--source-digest HEX]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload_name = v;
      if (!ParseWorkload(v, &a->workload)) return false;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (arg == "--trace") {
      a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (arg == "--inject-bug") {
      a->bug = v;
    } else if (arg == "--out-dir") {
      a->out_dir = v;
    } else if (arg == "--git-sha") {
      a->git_sha = v;
    } else if (arg == "--source-digest") {
      a->source_digest = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;  // not a number
  }
  return !a->workload_name.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1) &&
         (a->bug == "none" || a->bug == "model" || a->bug == "drop-write");
}

// --- Provenance ---------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#if defined(GS_THREAD_SAFETY)
constexpr bool kThreadSafety = true;
#else
constexpr bool kThreadSafety = false;
#endif
constexpr bool kLockOrderValidation = GS_LOCK_ORDER_VALIDATION != 0;

bool UbsanCompiledIn() {
  return std::strstr(PB_CXX_FLAGS, "sanitize=undefined") != nullptr ||
         std::strstr(PB_CXX_FLAGS, "sanitize=address,undefined") != nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string ProvenanceJson(const Args& a) {
  std::ostringstream o;
  o << "{\"git_sha\":" << JsonString(a.git_sha)
    << ",\"source_digest\":" << JsonString(a.source_digest)
    << ",\"build_type\":" << JsonString(PB_BUILD_TYPE)
    << ",\"compiler\":" << JsonString(PB_COMPILER)
    << ",\"cxx_flags\":" << JsonString(PB_CXX_FLAGS)
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"lock_order_validation\":" << (kLockOrderValidation ? "true" : "false")
    << ",\"gs_thread_safety\":" << (kThreadSafety ? "true" : "false")
    << ",\"tsan\":" << (kTsan ? "true" : "false")
    << ",\"asan\":" << (kAsan ? "true" : "false")
    << ",\"ubsan\":" << (UbsanCompiledIn() ? "true" : "false")
    << ",\"workload\":" << JsonString(a.workload_name)
    << ",\"seed\":" << a.seed << ",\"seconds\":" << a.seconds
    << ",\"trace\":" << a.trace
    << ",\"rate\":" << OpenLoopRate(a.workload)
    << ",\"tiny\":" << (a.tiny ? "true" : "false") << "}";
  return o.str();
}

// --- The concurrent run ----------------------------------------------------------

/// Failures shared by all client threads.
struct Failures {
  std::mutex mu;
  std::uint64_t count = 0;
  std::vector<std::string> first;
  void Add(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    ++count;
    if (first.size() < 5) first.push_back(why);
  }
};

struct Client {
  WireConn conn;
  std::unique_ptr<OpRunner> runner;
};

struct PhaseResult {
  std::uint64_t ops = 0;
  /// Completions per quarter-second window; the median window rate is the
  /// throughput (robust to a transient stall of the shared host).
  std::vector<std::uint64_t> window_ops;
  std::uint64_t client_cpu_ns = 0;
  std::uint64_t process_cpu_ns = 0;
  std::vector<double> latency_us[kNumKinds];
  std::vector<double> late_us;
};

/// Runs `clients` for `seconds`. Closed loop when `rate` is 0 (each client
/// sends its next request when the previous one answers); otherwise an
/// open loop at `rate` ops/s in aggregate, each request timed from the
/// moment it was due.
PhaseResult RunPhase(std::vector<Client*> clients, const Mix& mix,
                     double seconds, double rate, Failures* failures) {
  struct PerClient {
    std::uint64_t ops = 0, cpu_ns = 0;
    std::vector<std::uint64_t> window_ops;
    std::vector<double> latency_us[kNumKinds];
    std::vector<double> late_us;
  };
  std::vector<PerClient> per(clients.size());
  const std::uint64_t cpu_start = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  const std::uint64_t start = NowNs() + 1'000'000;  // all threads ready
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      PerClient& me = per[c];
      Client& client = *clients[c];
      const std::uint64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      const double per_client_rate = rate / static_cast<double>(clients.size());
      const std::uint64_t period =
          rate > 0 ? static_cast<std::uint64_t>(1e9 / per_client_rate) : 0;
      std::uint64_t due = start + (period * c) / clients.size();
      SleepUntilNs(start);
      for (;;) {
        if (period > 0) {
          if (due >= end) break;
          SleepUntilNs(due);
        } else if (NowNs() >= end) {
          break;
        }
        const std::uint64_t sent = NowNs();
        const std::uint64_t origin = period > 0 ? due : sent;
        Op op = client.runner->Next(mix);
        std::string why;
        const bool ok = client.runner->Run(&client.conn, &op, &why);
        const std::uint64_t done = NowNs();
        ++me.ops;
        if (done < end) {
          const std::size_t w = (done - start) / kWindowNs;
          if (me.window_ops.size() <= w) me.window_ops.resize(w + 1);
          ++me.window_ops[w];
        }
        if (!ok) failures->Add(std::string(kKindNames[op.kind]) + ": " + why);
        me.latency_us[op.kind].push_back(
            static_cast<double>(done - origin) * 1e-3);
        if (period > 0) {
          me.late_us.push_back(static_cast<double>(sent - due) * 1e-3);
          due += period;
        }
      }
      me.cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult r;
  r.process_cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  for (PerClient& p : per) {
    r.ops += p.ops;
    r.client_cpu_ns += p.cpu_ns;
    if (r.window_ops.size() < p.window_ops.size()) {
      r.window_ops.resize(p.window_ops.size());
    }
    for (std::size_t w = 0; w < p.window_ops.size(); ++w) {
      r.window_ops[w] += p.window_ops[w];
    }
    for (int k = 0; k < kNumKinds; ++k) {
      r.latency_us[k].insert(r.latency_us[k].end(), p.latency_us[k].begin(),
                             p.latency_us[k].end());
    }
    r.late_us.insert(r.late_us.end(), p.late_us.begin(), p.late_us.end());
  }
  return r;
}

// --- Registry deltas ----------------------------------------------------------

gemstone::telemetry::Snapshot RegistrySnapshot() {
  return gemstone::telemetry::MetricsRegistry::Global().Snapshot();
}

std::uint64_t CounterDelta(const gemstone::telemetry::Snapshot& before,
                           const gemstone::telemetry::Snapshot& after,
                           const std::string& name) {
  auto get = [&name](const gemstone::telemetry::Snapshot& s) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

double HistogramDeltaP50(const gemstone::telemetry::Snapshot& before,
                         const gemstone::telemetry::Snapshot& after,
                         const std::string& name) {
  auto it = after.histograms.find(name);
  if (it == after.histograms.end()) return 0;
  gemstone::telemetry::HistogramSnapshot delta = it->second;
  auto old = before.histograms.find(name);
  if (old != before.histograms.end() &&
      old->second.counts.size() == delta.counts.size()) {
    for (std::size_t i = 0; i < delta.counts.size(); ++i) {
      delta.counts[i] -= old->second.counts[i];
    }
    delta.count -= old->second.count;
    delta.sum -= old->second.sum;
  }
  return delta.p50();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median of per-round summaries: a stretch of noise on the shared host
/// spoils one round, not the result. `count` is the total sample count.
Summary MedianOfRounds(const std::vector<Summary>& rounds) {
  Summary s;
  std::vector<double> p50, tail, pct;
  for (const Summary& r : rounds) {
    if (r.count == 0) continue;
    s.count += r.count;
    p50.push_back(r.p50);
    tail.push_back(r.tail);
    pct.push_back(r.tail_pct);
  }
  s.p50 = Median(p50);
  s.tail = Median(tail);
  s.tail_pct = Median(pct);
  return s;
}

/// Rates of the full quarter-second windows of a closed-loop phase.
void AppendWindowRates(const PhaseResult& phase, double seconds,
                       std::vector<double>* rates) {
  const auto full = static_cast<std::size_t>(
      seconds * 1e9 / static_cast<double>(kWindowNs));
  for (std::size_t w = 0; w < full && w < phase.window_ops.size(); ++w) {
    rates->push_back(static_cast<double>(phase.window_ops[w]) * 1e9 /
                     static_cast<double>(kWindowNs));
  }
}

/// The tier store's levels, for the report ("" without one).
std::string TierShape(const System& system) {
  if (system.tiers == nullptr) return "";
  std::string shape;
  const auto levels = system.tiers->LevelStats();
  for (std::size_t i = 0; i < levels.size(); ++i) {
    shape += " L" + std::to_string(i + 1) + " runs=" +
             std::to_string(levels[i].runs) + " records=" +
             std::to_string(levels[i].records) + ";";
  }
  return shape + " archive runs=" +
         std::to_string(system.archive->run_count());
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::ostringstream o;
  o.precision(10);
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    o << (i ? ", " : "") << JsonString(ms[i].name) << ": {\"value\": " << v
      << ", \"unit\": " << JsonString(ms[i].unit) << "}";
  }
  o << "}";
  return o.str();
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& ms) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": " << MetricsJson(ms) << "}";
  return o.str();
}

std::string FilePrefix(const Args& a) {
  return a.out_dir + "/" + a.workload_name + "-seed" + std::to_string(a.seed) +
         "-trace" + std::to_string(a.trace);
}

// --- The run ------------------------------------------------------------------

int Run(const Args& args) {
  const Shape shape = ShapeFor(args.workload, args.tiny);
  const Mix main_mix = MainMix(args.workload);
  const double rate = OpenLoopRate(args.workload);
  const bool trace = args.trace == 1;
  // How --seconds is spent.
  const double closed_s = args.seconds * (trace ? 0.2 : 0.3);
  const double open_s = args.seconds * (trace ? 0.3 : 0.5);
  const double probe_s = trace ? 0 : args.seconds * 0.2;
  const double ladder_s = trace ? args.seconds * 0.5 : 0;
  const double warmup_s = std::min(0.5, args.seconds * 0.05);

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  auto& observatory = gemstone::telemetry::Observatory::Global();
  observatory.Start(std::chrono::milliseconds(1000));

  // Setup: build, load and (time_travel) compact an instance, several
  // times for a steady setup_s: at least 5, and up to 31 while they take
  // under 3 s in all, so each of the short oltp_point and compute_read
  // setups is a median of ten or more. The last instance is measured.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<System> system;
  std::unique_ptr<Model> model;
  const int setups = trace ? 1 : 31;
  for (int i = 0; i < setups && (i < 5 || setup_total_s < 3.0); ++i) {
    system.reset();
    model = std::make_unique<Model>(args.workload, shape, args.seed);
    const std::uint64_t t0 = NowNs();
    system = std::make_unique<System>(SystemOptions{true, shape.tiers, true, true});
    Status started = system->Start();
    WireConn setup_conn;
    if (started.ok()) started = setup_conn.Open(system->port());
    if (started.ok()) {
      System* sys = system.get();
      auto times = model->Setup(&setup_conn,
                                [sys] { return sys->CompactToQuiescence(); });
      started = times.status();
    }
    if (started.ok()) started = setup_conn.client().Logout();
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   started.ToString().c_str());
      observatory.Stop();
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    setup_total_s += setup_s.back();
  }
  if (!system->CollectAccountOids(shape.accounts).ok()) {
    std::fprintf(stderr, "perfbench: cannot locate the accounts\n");
    observatory.Stop();
    return 1;
  }
  if (args.bug == "model") model->Perturb();
  const std::string tier_shape = TierShape(*system);
  // Space per version of the set-up image: a function of the seeded data
  // and the storage layout alone. After the run it also depends on how
  // many writes the host's speed allowed, since each written account
  // moves to a track of its own; that value is reported, not gated.
  const double space_after_setup =
      Ratio(static_cast<double>(system->AllocatedBytes()),
            static_cast<double>(model->ElementVersions()));
  system->StartBackground();

  Client clients[kClients];
  std::vector<Client*> all;
  auto connect_all = [&]() {
    for (Client& c : clients) {
      c.conn.client().Close();
      if (!c.conn.Open(system->port()).ok()) return false;
    }
    return true;
  };
  for (int c = 0; c < kClients; ++c) {
    clients[c].runner =
        std::make_unique<OpRunner>(model.get(), c, kClients, args.seed);
    all.push_back(&clients[c]);
  }
  if (!connect_all()) {
    std::fprintf(stderr, "perfbench: clients cannot connect\n");
    observatory.Stop();
    return 1;
  }

  Failures failures;
  std::uint64_t attempted = 0;
  const auto engine_before = system->engine->stats();
  const auto disk_before = system->disk->stats();
  const auto txn_before = system->executor->transactions().stats();
  using gemstone::storage::tier::CompactorStats;
  const CompactorStats compactor_before =
      system->compactor ? system->compactor->stats() : CompactorStats{};
  const std::size_t free_tracks_before = system->engine->free_track_count();

  // Warm-up (not measured), then rounds of: capacity (closed loop),
  // latency at a fixed rate (open loop), and the probe of the op types
  // the main mix lacks.
  const PhaseResult warmup = RunPhase(all, main_mix, warmup_s, 0, &failures);
  attempted += warmup.ops;
  const auto reg_before = RegistrySnapshot();
  const int rounds = args.tiny ? 2 : kRounds;
  std::vector<double> window_rates;
  std::vector<Summary> round_lat[kNumKinds];
  std::vector<double> late_us;
  std::uint64_t closed_ops = 0, closed_cpu_ns = 0, closed_client_cpu_ns = 0;
  for (int r = 0; r < rounds; ++r) {
    // Each round after the first runs on fresh server and compactor
    // threads, so where the scheduler first put them does not decide the
    // whole run (on a shared VM that alone moved throughput 2x).
    if (r > 0) {
      for (Client& c : clients) (void)c.conn.client().Logout();
      if (!system->RestartThreads().ok() || !connect_all()) {
        failures.Add("cannot restart the server between rounds");
        break;
      }
    }
    const PhaseResult closed =
        RunPhase(all, main_mix, closed_s / rounds, 0, &failures);
    AppendWindowRates(closed, closed_s / rounds, &window_rates);
    closed_ops += closed.ops;
    closed_cpu_ns += closed.process_cpu_ns;
    closed_client_cpu_ns += closed.client_cpu_ns;
    const PhaseResult open =
        RunPhase(all, main_mix, open_s / rounds, rate, &failures);
    late_us.insert(late_us.end(), open.late_us.begin(), open.late_us.end());
    PhaseResult probe;
    if (probe_s > 0) {
      probe = RunPhase({&clients[0]}, ProbeMix(args.workload),
                       probe_s / rounds, 0, &failures);
    }
    for (int k = 0; k < kNumKinds; ++k) {
      round_lat[k].push_back(Summarize(main_mix.weight[k] > 0
                                           ? open.latency_us[k]
                                           : probe.latency_us[k]));
    }
    attempted += closed.ops + open.ops + probe.ops;
  }
  const auto reg_after = RegistrySnapshot();
  const auto engine_after = system->engine->stats();
  const auto disk_after = system->disk->stats();
  const auto txn_after = system->executor->transactions().stats();
  const CompactorStats compactor_after =
      system->compactor ? system->compactor->stats() : CompactorStats{};
  const std::size_t free_tracks_after = system->engine->free_track_count();
  const std::string tier_shape_after = TierShape(*system);
  const double space_after_run =
      Ratio(static_cast<double>(system->AllocatedBytes()),
            static_cast<double>(model->ElementVersions()));

  // Seeded-bug fixture: one more acknowledged write the recovered
  // platter will not have.
  std::unique_ptr<gemstone::storage::SimulatedDisk> stale;
  if (args.bug == "drop-write") {
    stale = system->CopyDisk();
    Mix writes;
    writes.weight[kWrite] = 1;
    Op op = clients[0].runner->Next(writes);
    std::string why;
    if (!clients[0].runner->Run(&clients[0].conn, &op, &why)) failures.Add(why);
    ++attempted;
  }
  for (Client& c : clients) (void)c.conn.client().Logout();
  // The measured system's server, compactor and the sampler are done:
  // stop them so the one-client ladder has the cores to itself.
  system->Stop();
  observatory.Stop();

  LadderResult ladder;
  if (trace) {
    ladder = RunLadder(args.workload, shape, args.seed, ladder_s);
    attempted += ladder.attempted;
    failures.count += ladder.failed;
    if (!ladder.ok) failures.Add("ladder: " + ladder.error);
  }

  // Crash and recover from the platters; every acknowledged write must be
  // there.
  RecoveryReport recovery =
      RecoverAndVerify(system.get(), std::move(stale), model.get(), args.seed,
                       args.tiny ? 1 : 9);
  ++attempted;
  if (!recovery.ok) failures.Add("durability: " + recovery.error);

  // --- Metrics ---------------------------------------------------------------
  std::vector<Metric> metrics;
  // Reported (here and in the saved result) but not BENCHMARK.json
  // metrics: the timings of many short cross-thread round trips. On a
  // shared host they follow the neighbours' load, by more than any bound
  // the benchmark may set (perfbench/README.md, "Stability").
  std::vector<Metric> reported;
  std::ostringstream report;
  report.precision(6);
  Summary lat[kNumKinds];
  for (int k = 0; k < kNumKinds; ++k) {
    const bool in_main = main_mix.weight[k] > 0;
    lat[k] = MedianOfRounds(round_lat[k]);
    if (!trace) {
      report << "latency " << kKindNames[k] << ": p50 " << lat[k].p50
             << " us, p" << lat[k].tail_pct << " " << lat[k].tail << " us, n="
             << lat[k].count << (in_main ? " (open loop)" : " (probe)")
             << "; per round p50/tail:";
      for (const Summary& r : round_lat[k]) {
        report << " " << static_cast<int>(r.p50) << "/"
               << static_cast<int>(r.tail);
      }
      report << "\n";
    }
  }
  const Summary late = Summarize(late_us);
  const double error_ratio =
      Ratio(static_cast<double>(failures.count), static_cast<double>(attempted));
  const std::uint64_t commits = engine_after.commits - engine_before.commits;
  if (!trace) {
    report << "closed-loop window rates (ops/s):";
    for (double r : window_rates) report << " " << static_cast<int>(r);
    report << "\n";
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    reported.push_back({"throughput_ops_s",
                       window_rates.empty()
                           ? Ratio(static_cast<double>(closed_ops), closed_s)
                           : Median(window_rates),
                       "1/s"});
    for (int k = 0; k < kNumKinds; ++k) {
      reported.push_back(
          {std::string(kKindNames[k]) + "_p50_us", lat[k].p50, "us"});
      reported.push_back(
          {std::string(kKindNames[k]) + "_p99_us", lat[k].tail, "us"});
    }
    reported.push_back({"recovery_s", recovery.seconds, "s"});
    metrics.push_back(
        {"write_bytes_per_commit",
         Ratio(static_cast<double>(engine_after.bytes_written -
                                   engine_before.bytes_written),
               static_cast<double>(commits)),
         "bytes"});
    metrics.push_back({"space_bytes_per_version", space_after_setup, "bytes"});
    reported.push_back(
        {"space_bytes_per_version_after_run", space_after_run, "bytes"});
  } else {
    for (const char* stage :
         {"queue", "lock_wait", "execute", "serialize", "flush"}) {
      const std::string name = std::string("net.stage.") + stage + "_us";
      metrics.push_back({name + ".p50",
                         HistogramDeltaP50(reg_before, reg_after, name), "us"});
    }
    metrics.push_back({"net.wire_self_us.p50",
                       ladder.metrics["net.wire_self_us.p50"], "us"});
    metrics.push_back(
        {"net.read_path_retry_ratio",
         Ratio(static_cast<double>(CounterDelta(reg_before, reg_after,
                                                "net.read_path_retries")),
               static_cast<double>(CounterDelta(reg_before, reg_after,
                                                "net.read_path_requests"))),
         "ratio"});
    metrics.push_back(
        {"net.server_cpu_us_per_op",
         Ratio(static_cast<double>(closed_cpu_ns - closed_client_cpu_ns) * 1e-3,
               static_cast<double>(closed_ops)),
         "us"});
    const std::pair<const char*, const char*> ladder_metrics[] = {
        {"executor.self_us.p50", "us"},
        {"opal.compile_us.p50", "us"},
        {"opal.interpret_us.p50", "us"},
        {"opal.bytecodes_per_op", "count"},
        {"opal.sends_per_op", "count"},
        {"opal.ns_per_bytecode", "ns"},
        {"stdm.parse_translate_us.p50", "us"},
        {"stdm.bind_execute_us.p50", "us"},
        {"txn.commit_us.p50", "us"},
        {"txn.validate_publish_us.p50", "us"},
        {"txn.history_read_us.p50", "us"},
        {"txn.tier_routed_share", "ratio"},
        {"storage.persist_us.p50", "us"},
        {"disk.tracks_read_per_history_read", "count"},
        {"storage.tier.resolve_us.p50", "us"},
        {"storage.tier.resolve_miss_ratio", "ratio"},
        {"trace.overhead_pct", "%"},
    };
    for (const auto& [name, unit] : ladder_metrics) {
      metrics.push_back({name, ladder.metrics[name], unit});
    }
    const double attempts = static_cast<double>(
        (txn_after.committed - txn_before.committed) +
        (txn_after.conflicts - txn_before.conflicts));
    metrics.push_back(
        {"txn.conflict_ratio",
         Ratio(static_cast<double>(txn_after.conflicts - txn_before.conflicts),
               attempts),
         "ratio"});
    metrics.push_back(
        {"disk.tracks_written_per_commit",
         Ratio(static_cast<double>(disk_after.tracks_written -
                                   disk_before.tracks_written),
               static_cast<double>(commits)),
         "count"});
    metrics.push_back(
        {"disk.seeks_per_commit",
         Ratio(static_cast<double>(disk_after.seeks - disk_before.seeks),
               static_cast<double>(commits)),
         "count"});
    metrics.push_back(
        {"engine.bytes_written_per_commit",
         Ratio(static_cast<double>(engine_after.bytes_written -
                                   engine_before.bytes_written),
               static_cast<double>(commits)),
         "bytes"});
    metrics.push_back({"storage.tier.compactor.pass_ms.p50",
                       Median(system->pass_ms), "ms"});
    metrics.push_back({"storage.tier.compactor.passes_during_run",
                       static_cast<double>(compactor_after.passes -
                                           compactor_before.passes),
                       "count"});
    metrics.push_back({"storage.recovery_objects_per_s",
                       recovery.objects_per_s, "1/s"});
    metrics.push_back({"loadgen.late_us.p99", late.tail, "us"});
  }

  const bool correct = failures.count == 0;
  report << "workload " << args.workload_name << " seed " << args.seed
         << ": attempted " << attempted << ", failed " << failures.count
         << ", error_ratio " << error_ratio << ", open-loop rate " << rate
         << " ops/s, generator late p" << late.tail_pct << " " << late.tail
         << " us\n";
  if (!tier_shape.empty()) {
    report << "tiers after setup:" << tier_shape
           << "; compactor during the run: passes "
           << compactor_after.passes - compactor_before.passes
           << ", objects demoted "
           << compactor_after.objects_demoted - compactor_before.objects_demoted
           << ", skipped hot "
           << compactor_after.skipped_hot - compactor_before.skipped_hot
           << "\ntiers after the run:" << tier_shape_after << "\n";
  }
  report << "setup (ms):";
  for (double s : setup_s) report << " " << s * 1e3;
  report << "\n";
  report << "recovery (ms):";
  for (double s : recovery.each_seconds) report << " " << s * 1e3;
  report << " (" << recovery.checked << " balances checked by each)\n";
  report << "L0 free tracks: " << free_tracks_before << " after setup, "
         << free_tracks_after << " after the run, of "
         << system->disk->num_tracks() << "\n";
  for (const std::string& why : failures.first) {
    report << "failure: " << why << "\n";
  }
  if (trace) {
    report << "per-layer table (traced ladder, one client):\n" << ladder.table;
    report << "waits (concurrent run): queue p50 "
           << HistogramDeltaP50(reg_before, reg_after, "net.stage.queue_us")
           << " us, lock_wait p50 "
           << HistogramDeltaP50(reg_before, reg_after, "net.stage.lock_wait_us")
           << " us\n";
    const std::string spans_path = FilePrefix(args) + ".spans.jsonl";
    if (WriteSpans(ladder.spans, spans_path)) {
      report << "spans: " << spans_path << " (" << ladder.spans.size()
             << ")\n";
    }
    std::ofstream(FilePrefix(args) + ".layers.txt") << ladder.table;
  }
  for (const Metric& m : metrics) {
    report << "metric " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const Metric& m : reported) {
    report << "reported, not gated: " << m.name << " = " << m.value
           << " " << m.unit << "\n";
  }
  const std::string result =
      ResultJson(correct, attempted, failures.count, metrics);
  std::ofstream(FilePrefix(args) + ".json")
      << "{\"provenance\": " << ProvenanceJson(args)
      << ", \"error_ratio\": " << error_ratio
      << ", \"reported\": " << MetricsJson(reported) << ", \"result\": " << result
      << "}\n";
  std::fputs(report.str().c_str(), stdout);
  std::printf("provenance %s\n", ProvenanceJson(args).c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return perfbench::Usage();
  // End-to-end numbers from a build with the lock-order validator or a
  // sanitizer compiled in are not comparable (the validator alone inflates
  // the execute stage about 10x): refuse them.
  if (perfbench::kLockOrderValidation || perfbench::kThreadSafety ||
      perfbench::kTsan || perfbench::kAsan || perfbench::UbsanCompiledIn()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report: this build has the lock-order "
                 "validator, GS_THREAD_SAFETY or a sanitizer compiled in: %s\n",
                 perfbench::ProvenanceJson(args).c_str());
    return 3;
  }
  return perfbench::Run(args);
}
