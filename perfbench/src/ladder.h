// The traced run (the layer ladder): one client sends each generated op
// over the wire, and the benchmark replays the same op, in process, at
// every layer below it on identically seeded instances, recording a span
// around each call into a layer's public function. Spans stay in memory
// and are written out at the end.
#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root (a wire round trip)
  std::uint64_t op = 0;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct LadderResult {
  bool ok = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Span> spans;
  /// Per-layer numbers derived from the spans and the instances' counters,
  /// keyed by the BENCHMARK.json per-layer metric name.
  std::map<std::string, double> metrics;
  /// The human-readable per-layer table.
  std::string table;
};

/// Runs the ladder for `seconds`, alternating traced and untraced blocks
/// of ops (the difference is trace.overhead_pct).
LadderResult RunLadder(Workload workload, const Shape& shape,
                       std::uint64_t seed, double seconds);

/// Writes spans as JSON lines.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
