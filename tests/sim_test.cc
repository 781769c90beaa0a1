#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace flexnet::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.Run();
  bool ran = false;
  sim.Schedule(-50, [&] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, EventsScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 5) sim.Schedule(10, chain);
  };
  sim.Schedule(10, chain);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (int t = 10; t <= 100; t += 10) {
    sim.Schedule(t, [&] { ++count; });
  }
  sim.RunUntil(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 50);
  sim.RunUntil(100);
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunUntilAdvancesTimeEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(12345);
  EXPECT_EQ(sim.now(), 12345);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.Schedule(10, [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelTwiceFails) {
  Simulator sim;
  const auto id = sim.Schedule(10, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  sim.Run();
}

TEST(SimulatorTest, CancelUnknownIdFails) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(999));
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.Schedule(1, [&] { ++count; });
  sim.Schedule(2, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, ExecutedEventCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.ScheduleAt(777, [&] { observed = sim.now(); });
  sim.Run();
  EXPECT_EQ(observed, 777);
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.Run();
  SimTime observed = -1;
  sim.ScheduleAt(50, [&] { observed = sim.now(); });
  sim.Run();
  EXPECT_EQ(observed, 100);
}

// A callable that counts its copies (moves are free).
struct CopyCounter {
  int* copies;
  bool* ran;
  CopyCounter(int* c, bool* r) : copies(c), ran(r) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), ran(other.ran) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) = default;
  void operator()() const { *ran = true; }
};

TEST(SimulatorTest, RunMovesEventsOut) {
  Simulator sim;
  int copies = 0;
  bool ran = false;
  sim.Schedule(10, CopyCounter(&copies, &ran));
  sim.Schedule(5, [] {});  // the counted event is not the first popped
  EXPECT_EQ(copies, 0);
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace flexnet::sim
