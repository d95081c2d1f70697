#include "ladder.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "opal/compiler.h"
#include "stdm/calculus_parser.h"
#include "stdm/translate.h"
#include "system.h"
#include "telemetry/metrics.h"
#include "txn/session.h"

namespace perfbench {

using gemstone::Result;
using gemstone::Status;

namespace {

/// The span log: Time() runs `f`, and when tracing is on records a span
/// named `name` under `parent`. The new span's id is left in last().
class SpanLog {
 public:
  void set_traced(bool traced) { traced_ = traced; }
  void set_op(std::uint64_t op) { op_ = op; }
  std::uint64_t last() const { return last_; }
  std::vector<Span>& spans() { return spans_; }

  template <class F>
  auto Time(const char* name, std::uint64_t parent, F&& f) {
    if (!traced_) {
      last_ = 0;
      return f();
    }
    Span span;
    span.id = ++next_id_;
    span.parent = parent;
    span.op = op_;
    span.name = name;
    span.start_ns = NowNs();
    auto result = f();
    span.end_ns = NowNs();
    spans_.push_back(span);
    last_ = span.id;
    return result;
  }

 private:
  bool traced_ = false;
  std::uint64_t op_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t last_ = 0;
  std::vector<Span> spans_;
};

std::uint64_t Counter(const gemstone::telemetry::Snapshot& s,
                      const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The wire rung's span name, by op kind. The write transaction's commit
/// and begin round trips are net.round_trip.commit and .begin.
const char* const kRoundTrip[kNumKinds] = {
    "net.round_trip.read", "net.round_trip.write", "net.round_trip.query",
    "net.round_trip.history"};

/// One identically seeded instance of the system, set up through `conn`.
struct Instance {
  std::unique_ptr<System> system;
  std::unique_ptr<Conn> conn;
  std::vector<std::uint64_t> setup_times;
};

Result<Instance> MakeInstance(Workload workload, const Shape& shape,
                              std::uint64_t seed, SystemOptions options,
                              Model* model) {
  Instance inst;
  inst.system = std::make_unique<System>(options);
  GS_RETURN_IF_ERROR(inst.system->Start());
  if (options.serve) {
    auto wire = std::make_unique<WireConn>();
    GS_RETURN_IF_ERROR(wire->Open(inst.system->port()));
    inst.conn = std::move(wire);
  } else {
    auto local = std::make_unique<LocalConn>();
    GS_RETURN_IF_ERROR(local->Open(inst.system->executor.get()));
    inst.conn = std::move(local);
  }
  Model scratch(workload, shape, seed);
  System* sys = inst.system.get();
  GS_ASSIGN_OR_RETURN(inst.setup_times,
                      (model != nullptr ? model : &scratch)
                          ->Setup(inst.conn.get(), [sys] {
                            return sys->CompactToQuiescence();
                          }));
  GS_RETURN_IF_ERROR(inst.system->CollectAccountOids(shape.accounts));
  return inst;
}

const char* LayerOf(const std::string& span) {
  if (span.rfind("net.", 0) == 0) return "net";
  if (span.rfind("executor.", 0) == 0) return "executor";
  if (span.rfind("opal.", 0) == 0) return "opal";
  if (span.rfind("stdm.", 0) == 0) return "stdm";
  if (span.rfind("txn.", 0) == 0) return "txn";
  return "storage";
}

}  // namespace

LadderResult RunLadder(Workload workload, const Shape& shape,
                       std::uint64_t seed, double seconds) {
  LadderResult out;
  auto fail = [&out](const std::string& why) {
    out.ok = false;
    if (out.error.empty()) out.error = why;
    ++out.failed;
  };

  // Three instances: the served one (the wire rung), an in-process
  // disk-backed one (executor/opal/stdm/txn/storage rungs) and an
  // in-memory one (commit without persist).
  Model model(workload, shape, seed);
  SystemOptions served{true, shape.tiers, true, false};
  SystemOptions local{true, shape.tiers, false, false};
  SystemOptions memory{false, false, false, false};
  auto wire_inst = MakeInstance(workload, shape, seed, served, &model);
  auto disk_inst = MakeInstance(workload, shape, seed, local, nullptr);
  auto mem_inst = MakeInstance(workload, shape, seed, memory, nullptr);
  if (!wire_inst.ok() || !disk_inst.ok() || !mem_inst.ok()) {
    fail("ladder setup: " +
         (!wire_inst.ok()   ? wire_inst.status().ToString()
          : !disk_inst.ok() ? disk_inst.status().ToString()
                            : mem_inst.status().ToString()));
    return out;
  }
  Instance& wire = wire_inst.value();
  Instance& disk = disk_inst.value();
  Instance& mem = mem_inst.value();
  if (wire.setup_times != disk.setup_times ||
      wire.setup_times != mem.setup_times) {
    fail("ladder instances diverged: setup commit times differ");
    return out;
  }
  auto& dex = *disk.system->executor;
  auto* dconn = static_cast<LocalConn*>(disk.conn.get());
  auto* mconn = static_cast<LocalConn*>(mem.conn.get());
  auto* wconn = static_cast<WireConn*>(wire.conn.get());
  gemstone::txn::Session* dsession = dex.session(dconn->session());
  gemstone::txn::Session* msession =
      mem.system->executor->session(mconn->session());
  gemstone::opal::Interpreter* interp = dex.interpreter(dconn->session());
  const gemstone::SymbolId balance_sym = dex.memory().symbols().Intern("balance");

  // Every op type the workload runs, main mix and probes alike.
  Mix mix = MainMix(workload);
  const Mix probe = ProbeMix(workload);
  for (int k = 0; k < kNumKinds; ++k) mix.weight[k] += 0.25 * probe.weight[k];
  OpRunner runner(&model, 0, 1, seed ^ 0x1add'e7ull);

  SpanLog log;
  std::uint64_t bytecodes = 0, sends = 0, interpret_ns = 0, runs = 0;
  std::uint64_t history_reads = 0, history_tracks = 0;
  std::vector<std::pair<gemstone::Oid, std::uint64_t>> dialed;
  // Whole-op wall time by [traced][kind], for trace.overhead_pct.
  std::vector<double> op_ns[2][kNumKinds];
  std::uint64_t traced_ops = 0;
  const auto tiers_before = wire.system->tiers != nullptr
                                ? wire.system->tiers->counters()
                                : gemstone::storage::tier::TierCounters{};

  constexpr int kBlock = 16;
  const std::uint64_t end = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t op_id = 0;
  while (out.ok && NowNs() < end) {
    const bool traced = (op_id / kBlock) % 2 == 0;
    log.set_traced(traced);
    for (int i = 0; i < kBlock && out.ok; ++i) {
      log.set_op(++op_id);
      Op op = runner.Next(mix);
      runner.Prepare(&op);
      ++out.attempted;
      traced_ops += traced ? 1 : 0;
      // Records the op's wall time on every exit from this iteration.
      struct OpTimer {
        std::vector<double>* into;
        std::uint64_t start = NowNs();
        ~OpTimer() { into->push_back(static_cast<double>(NowNs() - start)); }
      } timer{&op_ns[traced ? 1 : 0][op.kind]};
      AccountModel& acct = model.account(op.account);
      const std::int64_t current = acct.acked.load();
      std::string why;
      if (op.kind == kQuery) {
        auto r = log.Time("net.round_trip.query", 0,
                          [&] { return wconn->Stdm(op.text); });
        const std::uint64_t w = log.last();
        if (!r.ok() || !runner.Check(op, r.value(), 0, 0, &why)) {
          fail("wire: " + (r.ok() ? why : r.status().ToString()));
          break;
        }
        auto q = log.Time("executor.execute_stdm", w,
                          [&] { return dconn->Stdm(op.text); });
        const std::uint64_t e = log.last();
        if (!q.ok() || q.value() != r.value()) {
          fail("executor rung answered differently: " + op.text);
          break;
        }
        auto parsed = log.Time("stdm.parse_calculus", e, [&] {
          return gemstone::stdm::ParseCalculus(op.text);
        });
        if (!parsed.ok()) {
          fail("parse: " + parsed.status().ToString());
          break;
        }
        auto plan = log.Time("stdm.translate_to_algebra", e, [&] {
          return gemstone::stdm::TranslateToAlgebra(parsed.value());
        });
        if (!plan.ok()) fail("translate: " + plan.status().ToString());
        continue;
      }

      // OPAL ops: the wire rung, then the same block in process.
      const std::uint64_t tracks_before = wire.system->TracksRead();
      auto r = log.Time(kRoundTrip[op.kind], 0,
                        [&] { return wconn->Execute(op.text); });
      const std::uint64_t w = log.last();
      if (op.kind == kHistory) {
        ++history_reads;
        history_tracks += wire.system->TracksRead() - tracks_before;
      }
      if (!r.ok() || !runner.Check(op, r.value(), current,
                                   op.kind == kWrite ? op.value : current,
                                   &why)) {
        fail("wire: " + (r.ok() ? why : r.status().ToString()));
        break;
      }
      auto e_answer = log.Time("executor.execute_to_string", w,
                               [&] { return dconn->Execute(op.text); });
      const std::uint64_t e = log.last();
      gemstone::opal::Compiler compiler(&dex.memory());
      auto body = log.Time("opal.compile_body", e,
                           [&] { return compiler.CompileBody(op.text); });
      if (!e_answer.ok() || e_answer.value() != r.value() || !body.ok()) {
        fail("executor rung answered differently: " + op.text.substr(0, 80));
        break;
      }
      const auto stats_before = interp->stats();
      const std::uint64_t run_start = NowNs();
      auto value = log.Time("opal.interpret", e,
                            [&] { return interp->Run(body.value()); });
      const std::uint64_t run_ns = NowNs() - run_start;
      const std::uint64_t run_span = log.last();
      if (!value.ok() || interp->DefaultPrintString(value.value()) != r.value()) {
        fail("interpreter rung answered differently: " + op.text.substr(0, 80));
        break;
      }
      if (traced) {
        const auto stats_after = interp->stats();
        bytecodes += stats_after.bytecodes - stats_before.bytecodes;
        sends += stats_after.message_sends - stats_before.message_sends;
        interpret_ns += run_ns;
        ++runs;
      }
      if (op.kind == kHistory) {
        const gemstone::Oid oid = disk.system->account_oids[op.account];
        if (dialed.size() < 512) dialed.emplace_back(oid, op.time);
        auto past = log.Time("txn.read_named_at", run_span, [&] {
          return dsession->ReadNamedAt(oid, balance_sym, op.time);
        });
        const std::uint64_t h = log.last();
        if (!past.ok() || !past.value().IsInteger() ||
            past.value().integer() != op.expect) {
          fail("txn rung answered differently: " + op.text);
          break;
        }
        const gemstone::GsObject* object = dex.memory().Find(oid);
        if (disk.system->tiers != nullptr && object != nullptr &&
            op.time < object->history_floor()) {
          auto cold = log.Time("storage.tier.resolve_named", h, [&] {
            return disk.system->tiers->ResolveNamed(oid, "balance", op.time);
          });
          if (!cold.ok() || !cold.value().has_value() ||
              !cold.value()->value.IsInteger() ||
              cold.value()->value.integer() != op.expect) {
            fail("tier rung answered differently: " + op.text);
            break;
          }
        }
      }
      if (op.kind != kWrite) continue;

      // The rest of the write transaction: commit (disk-backed, then the
      // same commit in memory), then begin the next transaction.
      if (!mconn->Execute(op.text).ok()) {
        fail("in-memory rung rejected " + op.text);
        break;
      }
      auto t = log.Time("net.round_trip.commit", 0,
                        [&] { return wconn->client().Commit(); });
      const std::uint64_t wc = log.last();
      auto dc = log.Time("txn.commit", wc, [&] { return dsession->Commit(); });
      const std::uint64_t k = log.last();
      auto mc = log.Time("txn.commit_in_memory", k,
                         [&] { return msession->Commit(); });
      auto b = log.Time("net.round_trip.begin", 0,
                        [&] { return wconn->client().Begin(); });
      const Status db = dsession->Begin();
      const Status mb = msession->Begin();
      if (!t.ok() || !dc.ok() || !mc.ok() || !b.ok() || !db.ok() || !mb.ok()) {
        fail("write transaction failed on a rung: " + op.text);
        break;
      }
      if (t.value() != dex.transactions().Now() ||
          t.value() != mem.system->executor->transactions().Now()) {
        fail("rungs committed at different times");
        break;
      }
      model.Acknowledge(op.account, t.value(), op.value);
      acct.sent.store(op.value);
    }
  }

  // The share of time-dial reads the transaction manager routes to the
  // tier store, from its own counters, over a quiet replay of the
  // ladder's history reads.
  const auto reg_before = gemstone::telemetry::MetricsRegistry::Global().Snapshot();
  for (const auto& [oid, at] : dialed) {
    (void)dsession->ReadNamedAt(oid, balance_sym, at);
  }
  const auto reg_after = gemstone::telemetry::MetricsRegistry::Global().Snapshot();

  // Derived per-layer numbers. Self time = span minus its children.
  std::map<std::uint64_t, double> child_us;
  for (const Span& s : log.spans()) {
    if (s.parent != 0) {
      child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    }
  }
  std::map<std::string, std::vector<double>> dur, self;
  std::map<std::uint64_t, double> parse_translate;  // per op
  for (const Span& s : log.spans()) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    dur[s.name].push_back(us);
    self[s.name].push_back(us - child_us[s.id]);
    if (std::string(s.name).rfind("stdm.", 0) == 0) parse_translate[s.op] += us;
  }
  std::vector<double> pt;
  for (const auto& [op, us] : parse_translate) pt.push_back(us);
  auto p50 = [](const std::vector<double>& v) { return Median(v); };
  auto& m = out.metrics;
  // The wire's own time on point and analytic reads only: a commit round
  // trip's self time is the other instance's disk commit subtracted from
  // this one's, and a begin has no child span at all.
  m["net.wire_self_us.p50"] = p50(self["net.round_trip.read"]);
  m["executor.self_us.p50"] = p50(self["executor.execute_to_string"]);
  m["opal.compile_us.p50"] = p50(dur["opal.compile_body"]);
  m["opal.interpret_us.p50"] = p50(dur["opal.interpret"]);
  m["opal.bytecodes_per_op"] = Ratio(static_cast<double>(bytecodes), runs);
  m["opal.sends_per_op"] = Ratio(static_cast<double>(sends), runs);
  m["opal.ns_per_bytecode"] =
      Ratio(static_cast<double>(interpret_ns), static_cast<double>(bytecodes));
  m["stdm.parse_translate_us.p50"] = p50(pt);
  m["stdm.bind_execute_us.p50"] = p50(self["executor.execute_stdm"]);
  m["txn.commit_us.p50"] = p50(dur["txn.commit"]);
  m["txn.validate_publish_us.p50"] = p50(dur["txn.commit_in_memory"]);
  m["storage.persist_us.p50"] = p50(self["txn.commit"]);
  m["txn.history_read_us.p50"] = p50(dur["txn.read_named_at"]);
  m["storage.tier.resolve_us.p50"] = p50(dur["storage.tier.resolve_named"]);
  m["disk.tracks_read_per_history_read"] =
      Ratio(static_cast<double>(history_tracks), history_reads);
  m["txn.tier_routed_share"] = Ratio(
      static_cast<double>(Counter(reg_after, "txn.tier_routed_reads") -
                          Counter(reg_before, "txn.tier_routed_reads")),
      static_cast<double>(Counter(reg_after, "txn.historical_reads") -
                          Counter(reg_before, "txn.historical_reads")));
  if (wire.system->tiers != nullptr) {
    const auto after = wire.system->tiers->counters();
    m["storage.tier.resolve_miss_ratio"] = Ratio(
        static_cast<double>(after.resolve_misses - tiers_before.resolve_misses),
        static_cast<double>(after.resolves - tiers_before.resolves));
  } else {
    m["storage.tier.resolve_miss_ratio"] = 0;
  }
  // Traced against untraced op time: per-kind medians, weighted by how
  // often each kind ran, so the random mix of a block does not count.
  double traced_sum = 0, plain_sum = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    if (op_ns[0][k].empty() || op_ns[1][k].empty()) continue;
    const double n =
        static_cast<double>(op_ns[0][k].size() + op_ns[1][k].size());
    traced_sum += n * Median(op_ns[1][k]);
    plain_sum += n * Median(op_ns[0][k]);
  }
  m["trace.overhead_pct"] =
      plain_sum > 0 ? (traced_sum / plain_sum - 1.0) * 100.0 : 0;

  // The per-layer table: count per op, median span and self time, and
  // each span's share of all self time.
  double total_self = 0;
  for (const auto& [name, v] : self) {
    for (double x : v) total_self += x;
  }
  const double traced_op_count = static_cast<double>(traced_ops);
  std::ostringstream table;
  char line[256];
  std::snprintf(line, sizeof(line), "%-9s %-28s %9s %11s %11s %8s\n", "layer",
                "span", "per_op", "p50_us", "self_p50_us", "self_%");
  table << line;
  for (const auto& [name, v] : dur) {
    double sum_self = 0;
    for (double x : self[name]) sum_self += x;
    std::snprintf(line, sizeof(line), "%-9s %-28s %9.3f %11.2f %11.2f %8.2f\n",
                  LayerOf(name), name.c_str(),
                  Ratio(static_cast<double>(v.size()), traced_op_count),
                  p50(v), p50(self[name]), 100.0 * Ratio(sum_self, total_self));
    table << line;
  }
  out.table = table.str();
  out.spans = std::move(log.spans());
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  for (const Span& s : spans) {
    file << "{\"op\":" << s.op << ",\"span\":" << s.id
         << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << "}\n";
  }
  return static_cast<bool>(file);
}

}  // namespace perfbench
