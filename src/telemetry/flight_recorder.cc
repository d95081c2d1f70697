#include "telemetry/flight_recorder.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gemstone::telemetry {

std::string_view FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kTxnBegin: return "txn_begin";
    case FlightEventKind::kTxnCommit: return "txn_commit";
    case FlightEventKind::kTxnAbort: return "txn_abort";
    case FlightEventKind::kTxnConflict: return "txn_conflict";
    case FlightEventKind::kStorageFault: return "storage_fault";
    case FlightEventKind::kRecoveryFallback: return "recovery_fallback";
    case FlightEventKind::kSlowOp: return "slow_op";
    case FlightEventKind::kNetConnOpen: return "net_conn_open";
    case FlightEventKind::kNetConnClose: return "net_conn_close";
    case FlightEventKind::kSlowRequest: return "slow_request";
    case FlightEventKind::kArchive: return "archive";
    case FlightEventKind::kRestore: return "restore";
    case FlightEventKind::kTierMigration: return "tier_migration";
    case FlightEventKind::kTierCompaction: return "tier_compaction";
  }
  return "unknown";
}

namespace {

bool IsFailureKind(FlightEventKind kind) {
  return kind == FlightEventKind::kTxnAbort ||
         kind == FlightEventKind::kTxnConflict ||
         kind == FlightEventKind::kStorageFault;
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never dies
  return *recorder;
}

void FlightRecorder::Record(FlightEventKind kind, std::uint64_t session,
                            std::uint64_t a, std::uint64_t b,
                            std::string_view detail) {
  // Request attribution for free: whatever wire request this thread is
  // currently serving (0 when recording outside any dispatch).
  ring_.Record(FlightEvent{.ts_ns = TraceNowNs(),
                           .kind = kind,
                           .session = session,
                           .trace_id = CurrentTraceId(),
                           .a = a,
                           .b = b,
                           .detail = std::string(detail)});
  // Registry view of the event flow (exporters pick this up for free).
  static Counter* recorded =
      MetricsRegistry::Global().GetCounter("flightrec.events");
  recorded->Increment();
  if (IsFailureKind(kind)) {
    std::string path;
    {
      MutexLock lock(config_mu_);
      path = auto_dump_path_;
    }
    if (!path.empty()) {
      static Counter* dumps =
          MetricsRegistry::Global().GetCounter("flightrec.auto_dumps");
      dumps->Increment();
      (void)DumpToFile(path);
    }
  }
}

std::string FlightRecorder::RenderJson(std::vector<FlightEvent> events,
                                       std::size_t limit) const {
  // Keeps the newest `limit` events (Snapshot is sequence-ordered).
  if (limit != 0 && events.size() > limit) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::ostringstream out;
  out << "{\"capacity\":" << capacity()
      << ",\"recorded\":" << total_recorded()
      << ",\"dropped\":" << ring_.dropped() << ",\"events\":[";
  bool first = true;
  for (const FlightEvent& event : events) {
    if (!first) out << ",";
    first = false;
    out << "{\"seq\":" << event.seq << ",\"ts_ns\":" << event.ts_ns
        << ",\"kind\":\"" << FlightEventKindName(event.kind)
        << "\",\"session\":" << event.session
        << ",\"trace_id\":" << event.trace_id << ",\"a\":" << event.a
        << ",\"b\":" << event.b << ",\"detail\":\""
        << JsonEscape(event.detail) << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string FlightRecorder::DumpJson(std::size_t limit) const {
  return RenderJson(Snapshot(), limit);
}

std::string FlightRecorder::DumpJsonOfKind(FlightEventKind kind,
                                           std::size_t limit) const {
  std::vector<FlightEvent> events = Snapshot();
  std::erase_if(events,
                [kind](const FlightEvent& e) { return e.kind != kind; });
  return RenderJson(std::move(events), limit);
}

bool FlightRecorder::DumpToFile(const std::string& path) const {
  // Auto-dumps fire from whichever thread records a failure, under
  // different locks, so each writer fills its own temp file and renames
  // it over `path`: the file is replaced whole, never written by two.
  static std::atomic<std::uint64_t> next_temp{0};
  const std::string temp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(next_temp.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream file(temp, std::ios::trunc);
    file << DumpJson() << "\n";
    file.close();
    if (file && std::rename(temp.c_str(), path.c_str()) == 0) return true;
  }
  std::remove(temp.c_str());
  return false;
}

void FlightRecorder::SetAutoDumpPath(std::string path) {
  MutexLock lock(config_mu_);
  auto_dump_path_ = std::move(path);
}

std::string FlightRecorder::auto_dump_path() const {
  MutexLock lock(config_mu_);
  return auto_dump_path_;
}

}  // namespace gemstone::telemetry
