#include "telemetry/trace.h"

#include <atomic>

#include "telemetry/flight_recorder.h"

namespace gemstone::telemetry {

namespace {
thread_local std::uint32_t tls_span_depth = 0;
thread_local std::uint64_t tls_trace_id = 0;
// Innermost live span on this thread — the parent of the next span (or of
// any non-span record, e.g. disk I/O) opened here. 0 = at top level.
thread_local std::uint64_t tls_span_id = 0;

// Span ids are process-unique and monotone; 0 is reserved for "no span".
std::atomic<std::uint64_t> next_span_id{1};
// Dense thread ordinals so trace exports get small stable tids instead of
// opaque pthread handles.
std::atomic<std::uint32_t> next_thread_ordinal{1};
thread_local std::uint32_t tls_thread_ordinal = 0;

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}
}  // namespace

std::uint64_t CurrentSpanId() { return tls_span_id; }

std::uint32_t CurrentThreadOrdinal() {
  if (tls_thread_ordinal == 0) {
    tls_thread_ordinal =
        next_thread_ordinal.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_ordinal;
}

std::uint64_t TraceNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - TraceEpoch())
          .count());
}

std::uint64_t CurrentTraceId() { return tls_trace_id; }

TraceContextScope::TraceContextScope(std::uint64_t trace_id)
    : saved_(tls_trace_id) {
  tls_trace_id = trace_id;
}

TraceContextScope::~TraceContextScope() { tls_trace_id = saved_; }

TraceBuffer& TraceBuffer::Global() {
  static TraceBuffer* buffer = new TraceBuffer();  // never dies
  return *buffer;
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : EventRing(capacity, MetricsRegistry::Global().GetCounter(
                              "telemetry.dropped_spans")) {}

ScopedSpan::ScopedSpan(const char* name, Histogram* latency_us)
    : name_(name),
      latency_us_(latency_us),
      depth_(tls_span_depth++),
      span_id_(next_span_id.fetch_add(1, std::memory_order_relaxed)),
      parent_span_id_(tls_span_id),
      // TraceNowNs (not a raw clock read) so the very first span pins the
      // trace epoch and still gets a well-ordered start.
      start_ns_(TraceNowNs()) {
  tls_span_id = span_id_;
}

ScopedSpan::~ScopedSpan() {
  const std::uint64_t end_ns = TraceNowNs();
  --tls_span_depth;
  tls_span_id = parent_span_id_;
  SpanRecord span;
  span.name = name_;
  span.depth = depth_;
  span.trace_id = tls_trace_id;
  span.span_id = span_id_;
  span.parent_span_id = parent_span_id_;
  span.thread_id = CurrentThreadOrdinal();
  span.start_ns = start_ns_;
  const std::uint64_t duration_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  span.duration_ns = duration_ns;
  TraceBuffer::Global().Record(span);
  if (latency_us_ != nullptr) latency_us_->Observe(duration_ns / 1000);
  // Slow-op capture: spans this long are worth remembering even after
  // the span ring has long since wrapped.
  if (duration_ns >= FlightRecorder::kSlowOpNs) {
    FlightRecorder::Global().Record(FlightEventKind::kSlowOp, 0, duration_ns,
                                    depth_, name_);
  }
}

}  // namespace gemstone::telemetry
