#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace fsr {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualDeadlinesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingAdvancesClock) {
  Simulator sim;
  Time second_fired = -1;
  sim.schedule(10, [&] {
    sim.schedule(15, [&] { second_fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(second_fired, 25);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  TimerId id = sim.schedule(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int fired = 0;
  TimerId id = sim.schedule(10, [&] { ++fired; });
  sim.run();
  sim.cancel(id);  // after fire: harmless
  sim.cancel(id);
  sim.schedule(5, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelDefaultConstructedIdIsNoop) {
  Simulator sim;
  sim.cancel(TimerId{});
  bool fired = false;
  sim.schedule(1, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<Time> fired;
  for (Time t = 10; t <= 100; t += 10) {
    sim.schedule(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.run_until(50), 5u);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_EQ(sim.run(), 5u);
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenEmpty) {
  Simulator sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, RunStepsBoundsExecution) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.schedule(i, [&] { ++count; });
  EXPECT_EQ(sim.run_steps(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.pending(), 6u);
}

TEST(Simulator, EventsCanScheduleAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] {
    order.push_back(1);
    sim.schedule(0, [&] { order.push_back(2); });
  });
  sim.schedule(10, [&] { order.push_back(3); });
  sim.run();
  // The zero-delay event was scheduled after entry 3, so it runs after it.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, PendingTracksCancellation) {
  Simulator sim;
  auto a = sim.schedule(1, [] {});
  sim.schedule(2, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}


TEST(Simulator, StaleIdWhoseSlotWasReusedDoesNotCancel) {
  Simulator sim;
  TimerId old = sim.schedule(1, [] {});
  sim.run();  // fires and frees its slot
  bool fired = false;
  sim.schedule(1, [&] { fired = true; });  // takes the freed slot
  sim.cancel(old);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, StaleIdOfCanceledEventDoesNotCancelReuser) {
  Simulator sim;
  TimerId old = sim.schedule(5, [] {});
  sim.cancel(old);  // frees the slot while its heap entry is still queued
  int fired = 0;
  sim.schedule(5, [&] { ++fired; });
  sim.cancel(old);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, EqualDeadlinesStayFifoAcrossSlotReuse) {
  Simulator sim;
  std::vector<int> order;
  std::vector<TimerId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(sim.schedule(7, [&order, i] { order.push_back(i); }));
  }
  // Free slots in an order unrelated to scheduling order, then refill them:
  // the free list hands slots back last-in-first-out, so slot order and
  // scheduling order now disagree.
  sim.cancel(ids[1]);
  sim.cancel(ids[4]);
  sim.cancel(ids[2]);
  for (int i = 6; i < 10; ++i) sim.schedule(7, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 5, 6, 7, 8, 9}));
}

TEST(Simulator, CancelFromSameTimeCallback) {
  Simulator sim;
  std::vector<int> order;
  TimerId victim;
  sim.schedule(10, [&] {
    order.push_back(1);
    sim.cancel(victim);
  });
  victim = sim.schedule(10, [&] { order.push_back(2); });
  sim.schedule(10, [&] { order.push_back(3); });
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunUntilSkipsCanceledHead) {
  Simulator sim;
  bool late = false;
  TimerId head = sim.schedule(5, [] {});
  sim.schedule(20, [&] { late = true; });
  sim.cancel(head);
  EXPECT_EQ(sim.run_until(10), 0u);
  EXPECT_EQ(sim.now(), 10);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.pending(), 1u);
}

}  // namespace
}  // namespace fsr
