#include "src/sim/simulator.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "tests/sim_test_client.h"

namespace longstore {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  CallbackClient client;
  Simulator sim(&client, 3);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  sim.Arm(0, Duration::Hours(3.0), record, 3);
  sim.Arm(1, Duration::Hours(1.0), record, 1);
  sim.Arm(2, Duration::Hours(2.0), record, 2);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().hours(), 3.0);
  EXPECT_EQ(sim.processed_count(), 3u);
}

TEST(SimulatorTest, EqualTimesFireInArmingOrder) {
  CallbackClient client;
  Simulator sim(&client, 10);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  // Armed in reverse source order: the tie-break follows arming, not the
  // source index.
  for (int i = 0; i < 10; ++i) {
    sim.Arm(static_cast<uint32_t>(9 - i), Duration::Hours(5.0), record, i);
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, ArmAfterUsesCurrentTime) {
  CallbackClient client;
  Simulator sim(&client, 2);
  Duration second_fire;
  const uint16_t inner = client.Add([&] { second_fire = sim.now(); });
  const uint16_t outer =
      client.Add([&] { sim.ArmAfter(1, Duration::Hours(3.0), inner); });
  sim.Arm(0, Duration::Hours(2.0), outer);
  sim.Run();
  EXPECT_DOUBLE_EQ(second_fire.hours(), 5.0);
}

TEST(SimulatorTest, PayloadWordsAreDeliveredVerbatim) {
  CallbackClient client;
  Simulator sim(&client, 1);
  int32_t got_a = 0;
  int32_t got_b = 0;
  const uint16_t record = client.Add([&](int32_t a, int32_t b) {
    got_a = a;
    got_b = b;
  });
  sim.Arm(0, Duration::Hours(1.0), record, -7, 42);
  sim.Run();
  EXPECT_EQ(got_a, -7);
  EXPECT_EQ(got_b, 42);
}

TEST(SimulatorTest, DisarmPreventsDelivery) {
  CallbackClient client;
  Simulator sim(&client, 1);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  sim.Arm(0, Duration::Hours(1.0), mark);
  EXPECT_TRUE(sim.armed(0));
  EXPECT_TRUE(sim.Disarm(0));
  EXPECT_FALSE(sim.armed(0));
  EXPECT_FALSE(sim.Disarm(0));  // second disarm is a no-op
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.processed_count(), 0u);
}

TEST(SimulatorTest, DisarmingAnUnarmedSourceReturnsFalse) {
  CallbackClient client;
  Simulator sim(&client, 2);
  EXPECT_FALSE(sim.Disarm(0));
  EXPECT_FALSE(sim.Disarm(1));
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, ArmingAnArmedSourceThrows) {
  CallbackClient client;
  Simulator sim(&client, 2);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  sim.Arm(0, Duration::Hours(2.0), record, 1);
  EXPECT_THROW(sim.Arm(0, Duration::Hours(1.0), record, 2), std::logic_error);
  EXPECT_THROW(sim.ArmAfter(0, Duration::Hours(1.0), record, 3), std::logic_error);
  // The rejected arms left the pending event untouched.
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  // Fired, the source is free again.
  EXPECT_FALSE(sim.armed(0));
  sim.Arm(0, Duration::Hours(3.0), record, 4);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
}

TEST(SimulatorTest, SourceOutOfRangeThrows) {
  CallbackClient client;
  Simulator sim(&client, 2);
  const uint16_t noop = client.Add([] {});
  EXPECT_THROW(sim.Arm(2, Duration::Hours(1.0), noop), std::out_of_range);
  EXPECT_THROW(sim.Disarm(2), std::out_of_range);
  EXPECT_THROW((void)sim.armed(2), std::out_of_range);
}

// Disarming most sources of a large table swap-removes entries all over
// the pending array; the survivors must still fire in exact (time,
// arming-order) order.
TEST(SimulatorTest, DisarmChurnKeepsFiringOrder) {
  CallbackClient client;
  Simulator sim(&client, 1000);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  for (int i = 0; i < 1000; ++i) {
    // Many equal times, so the seq tie-break is exercised too.
    sim.Arm(static_cast<uint32_t>(i), Duration::Hours((i * 37) % 101), record, i);
  }
  std::vector<int> expected;
  for (int i = 0; i < 1000; ++i) {
    if (i % 7 == 0) {
      expected.push_back(i);
    } else {
      EXPECT_TRUE(sim.Disarm(static_cast<uint32_t>(i)));
    }
  }
  EXPECT_EQ(sim.pending_count(), expected.size());
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return (a * 37) % 101 < (b * 37) % 101;
  });
  sim.Run();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, DisarmFromInsideCallback) {
  CallbackClient client;
  Simulator sim(&client, 2);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  sim.Arm(1, Duration::Hours(2.0), mark);
  const uint16_t disarmer = client.Add([&] { EXPECT_TRUE(sim.Disarm(1)); });
  sim.Arm(0, Duration::Hours(1.0), disarmer);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, DisarmAfterFireReturnsFalse) {
  CallbackClient client;
  Simulator sim(&client, 1);
  const uint16_t noop = client.Add([] {});
  sim.Arm(0, Duration::Hours(1.0), noop);
  sim.Run();
  EXPECT_FALSE(sim.Disarm(0));
}

TEST(SimulatorTest, FiringSourceIsDisarmedInsideItsHandler) {
  CallbackClient client;
  Simulator sim(&client, 1);
  int fired = 0;
  uint16_t rearm = 0;
  rearm = client.Add([&] {
    EXPECT_FALSE(sim.armed(0));
    if (++fired < 3) {
      sim.ArmAfter(0, Duration::Hours(1.0), rearm);
    }
  });
  sim.Arm(0, Duration::Hours(1.0), rearm);
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 3.0);
}

TEST(SimulatorTest, RunUntilAdvancesClockToHorizon) {
  CallbackClient client;
  Simulator sim(&client, 2);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  sim.Arm(0, Duration::Hours(1.0), count);
  sim.Arm(1, Duration::Hours(10.0), count);
  sim.RunUntil(Duration::Hours(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 5.0);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.RunUntil(Duration::Hours(20.0));
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 20.0);
}

TEST(SimulatorTest, RunUntilBoundaryInclusive) {
  CallbackClient client;
  Simulator sim(&client, 1);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  sim.Arm(0, Duration::Hours(5.0), mark);
  sim.RunUntil(Duration::Hours(5.0));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepHonorsHorizon) {
  CallbackClient client;
  Simulator sim(&client, 2);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  sim.Arm(0, Duration::Hours(1.0), count);
  sim.Arm(1, Duration::Hours(10.0), count);
  EXPECT_TRUE(sim.Step(Duration::Hours(5.0)));
  EXPECT_FALSE(sim.Step(Duration::Hours(5.0)));  // next event lies beyond
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 1.0);  // Step never advances past events
  EXPECT_TRUE(sim.Step());  // unbounded: fires the remaining event
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopHaltsRun) {
  CallbackClient client;
  Simulator sim(&client, 2);
  int fired = 0;
  const uint16_t stopper = client.Add([&] {
    ++fired;
    sim.Stop();
  });
  const uint16_t count = client.Add([&] { ++fired; });
  sim.Arm(0, Duration::Hours(1.0), stopper);
  sim.Arm(1, Duration::Hours(2.0), count);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(SimulatorTest, StopHaltsRunUntilWithoutAdvancingClock) {
  CallbackClient client;
  Simulator sim(&client, 1);
  const uint16_t stopper = client.Add([&] { sim.Stop(); });
  sim.Arm(0, Duration::Hours(1.0), stopper);
  sim.RunUntil(Duration::Hours(100.0));
  EXPECT_DOUBLE_EQ(sim.now().hours(), 1.0);
}

TEST(SimulatorTest, PastSchedulingThrows) {
  CallbackClient client;
  Simulator sim(&client, 1);
  const uint16_t noop = client.Add([] {});
  sim.Arm(0, Duration::Hours(2.0), noop);
  sim.Run();
  EXPECT_THROW(sim.Arm(0, Duration::Hours(1.0), noop), std::invalid_argument);
  EXPECT_THROW(sim.ArmAfter(0, Duration::Hours(-1.0), noop), std::invalid_argument);
  EXPECT_FALSE(sim.armed(0));
}

TEST(SimulatorTest, InfiniteTimeThrows) {
  CallbackClient client;
  Simulator sim(&client, 1);
  const uint16_t noop = client.Add([] {});
  EXPECT_THROW(sim.Arm(0, Duration::Infinite(), noop), std::invalid_argument);
}

TEST(SimulatorTest, SchedulingWithoutClientThrows) {
  Simulator sim(nullptr, 1);
  EXPECT_THROW(sim.Arm(0, Duration::Hours(1.0), 0), std::logic_error);
}

TEST(SimulatorTest, AttachWhilePendingThrows) {
  CallbackClient client;
  Simulator sim(&client, 1);
  const uint16_t noop = client.Add([] {});
  sim.Arm(0, Duration::Hours(1.0), noop);
  EXPECT_THROW(sim.Attach(&client, 4), std::logic_error);
  sim.Run();
  sim.Attach(&client, 4);
  EXPECT_EQ(sim.source_count(), 4u);
}

TEST(SimulatorTest, CascadedSchedulingFromCallbacks) {
  CallbackClient client;
  Simulator sim(&client, 1);
  int depth = 0;
  uint16_t recurse = 0;
  recurse = client.Add([&] {
    if (++depth < 100) {
      sim.ArmAfter(0, Duration::Hours(1.0), recurse);
    }
  });
  sim.ArmAfter(0, Duration::Hours(1.0), recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 100.0);
}

// Local hash stepper so this test does not depend on src/util/random.h.
uint64_t SplitMix64NextForTest(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  constexpr uint32_t kEvents = 20000;
  CallbackClient client;
  Simulator sim(&client, kEvents);
  uint64_t state = 987;
  Duration last = Duration::Zero();
  bool monotone = true;
  const uint16_t check = client.Add([&] {
    if (sim.now() < last) {
      monotone = false;
    }
    last = sim.now();
  });
  for (uint32_t i = 0; i < kEvents; ++i) {
    const double t = static_cast<double>(SplitMix64NextForTest(state) % 1000000) / 100.0;
    sim.Arm(i, Duration::Hours(t), check);
  }
  EXPECT_EQ(sim.peak_pending(), kEvents);
  sim.Run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.processed_count(), kEvents);
}

}  // namespace
}  // namespace longstore
