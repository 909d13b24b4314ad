// Deterministic discrete-event simulation engine: a virtual clock and an
// event queue with stable FIFO tie-breaking, plus cancelable timers.
// Everything in the simulated world (network model, protocol timers, workload
// generators) schedules through one Simulator instance; runs are fully
// reproducible for a given seed and schedule.
//
// The queue is a binary heap of plain (when, serial, slot) entries over a
// slot table that owns the closures; freed slots go on a free list. A slot
// remembers the serial of the event it holds, so a heap entry or TimerId
// whose serial no longer matches its slot is stale (canceled, or already
// fired and the slot reused) and is skipped or ignored. In steady state,
// scheduling and firing a closure that fits std::function's small buffer
// allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace fsr {

class Simulator;

/// Handle for canceling a scheduled event. Default-constructed handles are
/// inert. Cancellation is O(1): the handle names its slot, and the slot's
/// serial tells whether the handle is still current.
class TimerId {
 public:
  TimerId() = default;
  bool valid() const { return serial_ != 0; }

 private:
  friend class Simulator;
  friend class TcpTransport;  // the other timer-id issuer
  explicit TimerId(std::uint64_t serial, std::uint32_t slot = 0)
      : serial_(serial), slot_(slot) {}
  std::uint64_t serial_ = 0;
  std::uint32_t slot_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedule `fn` to run at now() + delay (delay >= 0). Events with equal
  /// deadlines run in scheduling order.
  TimerId schedule(Time delay, std::function<void()> fn);

  /// Schedule at an absolute virtual time (>= now()).
  TimerId schedule_at(Time when, std::function<void()> fn);

  /// Cancel a pending event; harmless if it already ran or was canceled.
  void cancel(TimerId id);

  /// Run events until the queue is empty. Returns the number executed.
  std::uint64_t run();

  /// Run events with deadline <= until; leaves now() == until unless the
  /// queue drains first. Returns the number executed.
  std::uint64_t run_until(Time until);

  /// Execute a bounded number of events (for step-debugging in tests).
  std::uint64_t run_steps(std::uint64_t max_events);

  /// Run events with deadline <= until, executing at most max_events.
  /// now() advances to `until` only if the event budget was not exhausted
  /// first. Returns the number executed.
  std::uint64_t run_until_capped(Time until, std::uint64_t max_events);

  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }

  /// Total events executed since construction (across all run_* calls).
  /// Schedule-exploration harnesses use this as a runaway-schedule guard.
  std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    Time when;
    std::uint64_t serial;  // tie-break: FIFO among equal deadlines
    std::uint32_t slot;
  };

  struct Slot {
    std::uint64_t serial = 0;  // serial of the event held here; 0 = free
    std::function<void()> fn;
  };

  /// Drop stale entries off the top; true if a live event is next.
  bool skip_stale();
  Entry pop_top();
  void fire(const Entry& e);
  void release(std::uint32_t slot);

  Time now_ = 0;
  std::uint64_t next_serial_ = 1;
  std::uint64_t executed_ = 0;
  /// Scheduled-but-not-yet-fired/canceled events: the ground truth for
  /// empty()/pending(). Harnesses spin on empty(), so a skewed count is a
  /// harness livelock; a stale cancel must not move it.
  std::size_t live_ = 0;
  std::vector<Entry> heap_;  // min-heap on (when, serial)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace fsr
