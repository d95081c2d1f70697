#ifndef GEMSTONE_TELEMETRY_EVENT_RING_H_
#define GEMSTONE_TELEMETRY_EVENT_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/annotations.h"
#include "core/sync.h"
#include "telemetry/metrics.h"

namespace gemstone::telemetry {

/// The bounded ring behind both telemetry event streams: spans
/// (TraceBuffer) and flight events (FlightRecorder). `Event` has a
/// `std::uint64_t seq` member that the ring owns: 1-based, 0 = slot never
/// written. Writers claim a seq with one wait-free fetch_add and store
/// into slot `seq % capacity` under that slot's own mutex, so two writers
/// contend only when the ring laps itself. When full, the oldest record
/// is overwritten. Readers lock one slot at a time while copying; no
/// lock is ever taken under a slot lock.
template <typename Event>
class EventRing {
 public:
  /// A capacity of 0 is clamped to one slot. When `evictions` is set,
  /// every record the ring drops also bumps that registry counter.
  explicit EventRing(std::size_t capacity, Counter* evictions = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity),
        slots_(new Slot[capacity_]),
        evictions_(evictions) {}

  /// Stores `event` under the next seq.
  void Record(Event event) {
    const std::uint64_t seq =
        next_seq_.fetch_add(1, std::memory_order_relaxed);
    event.seq = seq;
    Slot& slot = slots_[seq % capacity_];
    bool dropped;
    {
      MutexLock lock(slot.mu);
      // A writer a full lap ahead may have filled the slot first; the
      // newer record stays and this one is the drop.
      const std::uint64_t held = slot.event.seq;
      dropped = held > seq || held > floor_.load(std::memory_order_relaxed);
      if (held < seq) slot.event = std::move(event);
    }
    if (dropped && evictions_ != nullptr) evictions_->Increment();
  }

  /// Retained records, oldest (lowest seq) first.
  std::vector<Event> Snapshot() const {
    const std::uint64_t floor = floor_.load(std::memory_order_acquire);
    std::vector<Event> out;
    out.reserve(size());
    for (std::size_t i = 0; i < capacity_; ++i) {
      const Slot& slot = slots_[i];
      MutexLock lock(slot.mu);
      if (slot.event.seq > floor) out.push_back(slot.event);
    }
    std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
      return a.seq < b.seq;
    });
    return out;
  }

  /// Forgets every record: those at or below the current seq turn
  /// invisible and the counts restart from zero. Numbering continues, so
  /// a writer racing the clear cannot resurrect an old record.
  void Clear() {
    floor_.store(next_seq_.load(std::memory_order_relaxed) - 1,
                 std::memory_order_release);
  }

  std::size_t capacity() const { return capacity_; }
  /// Records retained (exact once writers are quiescent).
  std::size_t size() const {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(total_recorded(), capacity_));
  }
  /// Records since the last Clear, including those already overwritten.
  std::uint64_t total_recorded() const {
    // floor_ first: Clear stored it from an earlier next_seq_, so the
    // difference cannot underflow.
    const std::uint64_t floor = floor_.load(std::memory_order_acquire);
    return next_seq_.load(std::memory_order_relaxed) - 1 - floor;
  }
  /// Records overwritten because the ring wrapped.
  std::uint64_t dropped() const {
    const std::uint64_t recorded = total_recorded();
    return recorded > capacity_ ? recorded - capacity_ : 0;
  }

 private:
  struct Slot {
    mutable Mutex mu{LockRank::kTelemetryRingSlot, "telemetry.ring_slot_mu"};
    Event event GS_GUARDED_BY(mu);  // seq 0 = never written
  };

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  Counter* const evictions_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> floor_{0};  // last seq forgotten by Clear
};

}  // namespace gemstone::telemetry

#endif  // GEMSTONE_TELEMETRY_EVENT_RING_H_
