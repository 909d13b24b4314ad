// Host-invariant allocation gates for the simulated harness's per-event
// path. A counting replacement of the global operator new sees every heap
// allocation in this binary, so these tests live in their own executable:
// the main suite keeps the sanitizers' own operator new (and with it ASan's
// new/delete mismatch check).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "checker/invariant_checker.h"
#include "sim/simulator.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fsr {
namespace {

/// Heap allocations (count and bytes) since construction.
class AllocWindow {
 public:
  std::uint64_t allocs() const { return g_allocs.load() - allocs0_; }
  std::uint64_t bytes() const { return g_bytes.load() - bytes0_; }

 private:
  std::uint64_t allocs0_ = g_allocs.load();
  std::uint64_t bytes0_ = g_bytes.load();
};

TEST(AllocGate, CounterSeesHeapAllocations) {
  AllocWindow w;
  auto* p = new std::vector<int>(100);
  const std::uint64_t seen = w.allocs();
  delete p;
  EXPECT_GE(seen, 2u);  // the vector object and its buffer
}

TEST(AllocGate, SimulatorSteadyStateScheduleAndFireAllocatesNothing) {
  Simulator sim;
  std::uint64_t fired = 0;
  // One round mixes what the simulated harness does per event: timers at
  // equal and distinct deadlines, a cancel, and events scheduled from
  // inside callbacks. Every closure captures at most two pointers, so it
  // fits std::function's small buffer.
  auto round = [&] {
    for (int i = 0; i < 64; ++i) {
      sim.schedule(i % 7, [&sim, &fired] {
        ++fired;
        sim.schedule(1, [&fired] { ++fired; });
      });
    }
    TimerId doomed = sim.schedule(3, [&fired] { fired += 1000; });
    sim.cancel(doomed);
    sim.run();
  };
  round();  // warm-up: grows the heap, the slot table and the free list
  AllocWindow w;
  for (int r = 0; r < 200; ++r) round();
  const std::uint64_t allocs = w.allocs();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 201u * 128u);
}

TEST(AllocGate, CheckerFarOutKeysAllocateNoTable) {
  // A fabricated app_msg and seq of 2^40 must be checked like any other key
  // without stretching a table toward it: a dense table reaching 2^40 would
  // need terabytes, so the bound below only holds for the overflow path.
  constexpr std::uint64_t kFar = std::uint64_t{1} << 40;
  InvariantChecker c(3);
  for (std::uint64_t app = 1; app <= 100; ++app) {
    c.on_broadcast(0, app, app);
    c.on_delivery(DeliveryRecord{0, 0, 0, app, app, 1, app, 0, 0});
  }
  AllocWindow w;
  c.on_broadcast(0, kFar, 7);
  c.on_delivery(DeliveryRecord{1, 0, 0, kFar, kFar, 1, 7, 0, 0});
  c.on_delivery(DeliveryRecord{2, 0, 1, kFar, kFar, 1, 9, 0, 0});
  const std::uint64_t bytes = w.bytes();
  EXPECT_LT(bytes, 64u * 1024u);
  EXPECT_EQ(c.online_violation(),
            "node 2 delivering group 0 m(1,1099511627776): seq 1099511627776 already "
            "carried m(0,1099511627776)");
}

}  // namespace
}  // namespace fsr
