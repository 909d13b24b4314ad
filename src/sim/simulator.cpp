#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace fsr {

namespace {

/// Heap order for std::push_heap/pop_heap (a max-heap on this relation is a
/// min-heap on (when, serial)). Serials are unique, so the pop order is a
/// total order independent of the heap's layout.
constexpr auto later = [](const auto& a, const auto& b) {
  if (a.when != b.when) return a.when > b.when;
  return a.serial > b.serial;
};

}  // namespace

TimerId Simulator::schedule(Time delay, std::function<void()> fn) {
  assert(delay >= 0 && "cannot schedule into the past");
  return schedule_at(now_ + delay, std::move(fn));
}

TimerId Simulator::schedule_at(Time when, std::function<void()> fn) {
  assert(when >= now_ && "cannot schedule into the past");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  std::uint64_t serial = next_serial_++;
  slots_[slot].serial = serial;
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Entry{when, serial, slot});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return TimerId{serial, slot};
}

void Simulator::release(std::uint32_t slot) {
  slots_[slot].serial = 0;
  free_slots_.push_back(slot);
  --live_;
}

void Simulator::cancel(TimerId id) {
  // Only a handle whose serial still owns its slot cancels anything:
  // double-cancel, cancel-after-fire and a stale handle whose slot was
  // reused are no-ops, so they cannot skew the live count. The heap entry
  // stays behind and is dropped when it reaches the top.
  if (!id.valid() || id.slot_ >= slots_.size()) return;
  Slot& s = slots_[id.slot_];
  if (s.serial != id.serial_) return;
  // Destroy the closure only once the table is consistent again: its
  // captures' destructors may call back into the simulator.
  auto doomed = std::move(s.fn);
  release(id.slot_);
}

Simulator::Entry Simulator::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

bool Simulator::skip_stale() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (slots_[top.slot].serial == top.serial) return true;
    pop_top();
  }
  return false;
}

void Simulator::fire(const Entry& e) {
  // Move the closure out before running it: it may schedule, which can
  // reuse this slot or reallocate the slot table.
  auto fn = std::move(slots_[e.slot].fn);
  release(e.slot);
  now_ = e.when;
  ++executed_;
  fn();
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (skip_stale()) {
    fire(pop_top());
    ++n;
  }
  return n;
}

std::uint64_t Simulator::run_until(Time until) {
  std::uint64_t n = 0;
  while (skip_stale() && heap_.front().when <= until) {
    fire(pop_top());
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

std::uint64_t Simulator::run_steps(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && skip_stale()) {
    fire(pop_top());
    ++n;
  }
  return n;
}

std::uint64_t Simulator::run_until_capped(Time until, std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events) {
    if (!skip_stale() || heap_.front().when > until) {
      if (now_ < until) now_ = until;
      break;
    }
    fire(pop_top());
    ++n;
  }
  return n;
}

}  // namespace fsr
