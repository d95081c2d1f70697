#ifndef GEMSTONE_TELEMETRY_TRACE_H_
#define GEMSTONE_TELEMETRY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "telemetry/event_ring.h"
#include "telemetry/metrics.h"

namespace gemstone::telemetry {

/// One completed scoped span. `depth` is the nesting level on the
/// recording thread at the time the span opened (0 = outermost).
/// `trace_id` names the wire request the span served (0 = none bound).
///
/// Spans are parent-linked: every live ScopedSpan gets a process-unique
/// `span_id`, and `parent_span_id` is the id of the span that was
/// innermost on the same thread when this one opened (0 = a root). A
/// drained buffer therefore reassembles the exact call tree of one
/// request — across the threads its trace id visited — without guessing
/// from depths or timestamps (telemetry/trace_export.h).
struct SpanRecord {
  const char* name = "";  // must point at a string literal
  std::uint32_t depth = 0;
  std::uint64_t start_ns = 0;  // since process trace epoch (steady clock)
  std::uint64_t duration_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;         // process-unique, never 0 once recorded
  std::uint64_t parent_span_id = 0;  // 0 = root of its thread's tree
  std::uint32_t thread_id = 0;       // small per-thread ordinal (tid in
                                     // the Chrome trace-event export)
  std::uint64_t seq = 0;             // ring order, set by EventRing
};

/// The span stream: the ring of recently completed spans, oldest
/// overwritten when full. Ring wraps are mirrored into the registry
/// counter `telemetry.dropped_spans` so exporters see them too.
class TraceBuffer : public EventRing<SpanRecord> {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  static TraceBuffer& Global();

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);
};

/// RAII span: records wall time from construction to destruction into the
/// global TraceBuffer (with the thread's current nesting depth) and, when
/// `latency_us` is non-null, observes the duration in microseconds there.
/// Use via TELEM_SPAN, which wires the histogram automatically.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, Histogram* latency_us = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  Histogram* latency_us_;
  std::uint32_t depth_;
  std::uint64_t span_id_;
  std::uint64_t parent_span_id_;
  std::uint64_t start_ns_;  // TraceNowNs at construction
};

/// Nanoseconds since the process trace epoch (first use of the clock).
std::uint64_t TraceNowNs();

/// The span id of the innermost live ScopedSpan on this thread (0 = none).
/// Lets non-span records (disk I/O attribution, flight events) point at
/// the span tree node they happened under.
std::uint64_t CurrentSpanId();

/// Small dense ordinal for the calling thread (assigned on first use).
/// Stable for the thread's lifetime; used as the `tid` of exported trace
/// events so Perfetto lays each thread out on its own row.
std::uint32_t CurrentThreadOrdinal();

// --- Request trace context ---------------------------------------------------
//
// The wire layer binds the 64-bit trace id of the request it is serving
// into a thread-local for the duration of dispatch. Everything recorded
// on that thread while the scope is live — spans, flight-recorder
// events, slow-op captures — picks the id up implicitly, so existing
// call sites need no plumbing to become request-attributed.

/// The trace id bound on this thread, or 0 when no request is in scope.
std::uint64_t CurrentTraceId();

/// RAII binding of a trace id to the current thread. Nests: the previous
/// id is restored on destruction, so re-entrant dispatch keeps the
/// innermost (most specific) request attribution.
class TraceContextScope {
 public:
  explicit TraceContextScope(std::uint64_t trace_id);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace gemstone::telemetry

#define GS_TELEM_CONCAT_INNER(a, b) a##b
#define GS_TELEM_CONCAT(a, b) GS_TELEM_CONCAT_INNER(a, b)

/// Opens a scoped trace span named by a string literal. Timings land in
/// the global TraceBuffer and in the registry histogram `span.<name>`
/// (microseconds), so every instrumented phase gets p50/p95/p99 for free.
///
///   TELEM_SPAN("commit.flip_root");
#define TELEM_SPAN(name)                                                     \
  static ::gemstone::telemetry::Histogram* GS_TELEM_CONCAT(                  \
      gs_telem_hist_, __LINE__) =                                            \
      ::gemstone::telemetry::MetricsRegistry::Global().GetHistogram(         \
          std::string("span.") + (name));                                    \
  ::gemstone::telemetry::ScopedSpan GS_TELEM_CONCAT(gs_telem_span_,          \
                                                    __LINE__)(               \
      (name), GS_TELEM_CONCAT(gs_telem_hist_, __LINE__))

#endif  // GEMSTONE_TELEMETRY_TRACE_H_
