#include "sim/simulation.h"

#include <gtest/gtest.h>

namespace aurora {
namespace {

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(SimDuration::Millis(30), [&]() { order.push_back(3); });
  sim.Schedule(SimDuration::Millis(10), [&]() { order.push_back(1); });
  sim.Schedule(SimDuration::Millis(20), [&]() { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::Millis(30));
}

TEST(SimulationTest, EqualTimesFifoBySchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(SimTime::Millis(7), [&order, i]() { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, RunUntilStopsAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(SimDuration::Millis(10), [&]() { fired++; });
  sim.Schedule(SimDuration::Millis(50), [&]() { fired++; });
  sim.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Millis(20));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulationTest, EventsMayScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 10) sim.Schedule(SimDuration::Millis(1), recurse);
  };
  sim.Schedule(SimDuration::Millis(1), recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
}

TEST(SimulationTest, PeriodicRunsUntilFalse) {
  Simulation sim;
  int ticks = 0;
  PeriodicTimer timer = sim.SchedulePeriodicCancelable(
      SimDuration::Millis(5), [&]() { return ++ticks < 4; });
  sim.RunAll();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(sim.Now(), SimTime::Millis(20));
}

TEST(SimTimeTest, ArithmeticAndConversions) {
  EXPECT_EQ(SimTime::Seconds(1.5).micros(), 1'500'000);
  EXPECT_EQ(SimTime::Millis(2).micros(), 2'000);
  EXPECT_EQ((SimTime::Millis(5) + SimTime::Millis(3)).millis(), 8.0);
  EXPECT_EQ((SimTime::Millis(5) - SimTime::Millis(3)).millis(), 2.0);
  EXPECT_LT(SimTime::Millis(1), SimTime::Millis(2));
}

}  // namespace
}  // namespace aurora
