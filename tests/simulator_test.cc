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
  Simulator sim(&client);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  sim.ScheduleAt(Duration::Hours(3.0), record, 3);
  sim.ScheduleAt(Duration::Hours(1.0), record, 1);
  sim.ScheduleAt(Duration::Hours(2.0), record, 2);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().hours(), 3.0);
  EXPECT_EQ(sim.processed_count(), 3u);
}

TEST(SimulatorTest, EqualTimesFireInScheduleOrder) {
  CallbackClient client;
  Simulator sim(&client);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Duration::Hours(5.0), record, i);
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  CallbackClient client;
  Simulator sim(&client);
  Duration second_fire;
  const uint16_t inner = client.Add([&] { second_fire = sim.now(); });
  const uint16_t outer =
      client.Add([&] { sim.ScheduleAfter(Duration::Hours(3.0), inner); });
  sim.ScheduleAt(Duration::Hours(2.0), outer);
  sim.Run();
  EXPECT_DOUBLE_EQ(second_fire.hours(), 5.0);
}

TEST(SimulatorTest, PayloadWordsAreDeliveredVerbatim) {
  CallbackClient client;
  Simulator sim(&client);
  int32_t got_a = 0;
  int32_t got_b = 0;
  const uint16_t record = client.Add([&](int32_t a, int32_t b) {
    got_a = a;
    got_b = b;
  });
  sim.ScheduleAt(Duration::Hours(1.0), record, -7, 42);
  sim.Run();
  EXPECT_EQ(got_a, -7);
  EXPECT_EQ(got_b, 42);
}

TEST(SimulatorTest, CancelPreventsDelivery) {
  CallbackClient client;
  Simulator sim(&client);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  const EventId id = sim.ScheduleAt(Duration::Hours(1.0), mark);
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.processed_count(), 0u);
}

// Cancelling most of a large queue triggers the in-place compaction; the
// survivors must still fire in exact (time, scheduling-order) order.
TEST(SimulatorTest, CompactionKeepsFiringOrder) {
  CallbackClient client;
  Simulator sim(&client);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    // Many equal times, so the seq tie-break is exercised too.
    ids.push_back(sim.ScheduleAt(Duration::Hours((i * 37) % 101), record, i));
  }
  std::vector<int> expected;
  for (int i = 0; i < 1000; ++i) {
    if (i % 7 == 0) {
      expected.push_back(i);
    } else {
      EXPECT_TRUE(sim.Cancel(ids[i]));
    }
  }
  EXPECT_LE(sim.queued_records(), 2 * sim.pending_count() + 1);
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return (a * 37) % 101 < (b * 37) % 101;
  });
  sim.Run();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.queued_records(), 0u);
}

TEST(SimulatorTest, CancelFromInsideCallback) {
  CallbackClient client;
  Simulator sim(&client);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  const EventId victim = sim.ScheduleAt(Duration::Hours(2.0), mark);
  const uint16_t canceller = client.Add([&] { EXPECT_TRUE(sim.Cancel(victim)); });
  sim.ScheduleAt(Duration::Hours(1.0), canceller);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  CallbackClient client;
  Simulator sim(&client);
  EXPECT_FALSE(sim.Cancel(EventId()));
  EXPECT_FALSE(sim.Cancel(EventId(424242)));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t noop = client.Add([] {});
  const EventId id = sim.ScheduleAt(Duration::Hours(1.0), noop);
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, RunUntilAdvancesClockToHorizon) {
  CallbackClient client;
  Simulator sim(&client);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  sim.ScheduleAt(Duration::Hours(1.0), count);
  sim.ScheduleAt(Duration::Hours(10.0), count);
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
  Simulator sim(&client);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  sim.ScheduleAt(Duration::Hours(5.0), mark);
  sim.RunUntil(Duration::Hours(5.0));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepHonorsHorizon) {
  CallbackClient client;
  Simulator sim(&client);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  sim.ScheduleAt(Duration::Hours(1.0), count);
  sim.ScheduleAt(Duration::Hours(10.0), count);
  EXPECT_TRUE(sim.Step(Duration::Hours(5.0)));
  EXPECT_FALSE(sim.Step(Duration::Hours(5.0)));  // next event lies beyond
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 1.0);  // Step never advances past events
  EXPECT_TRUE(sim.Step());  // unbounded: fires the remaining event
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopHaltsRun) {
  CallbackClient client;
  Simulator sim(&client);
  int fired = 0;
  const uint16_t stopper = client.Add([&] {
    ++fired;
    sim.Stop();
  });
  const uint16_t count = client.Add([&] { ++fired; });
  sim.ScheduleAt(Duration::Hours(1.0), stopper);
  sim.ScheduleAt(Duration::Hours(2.0), count);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(SimulatorTest, StopHaltsRunUntilWithoutAdvancingClock) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t stopper = client.Add([&] { sim.Stop(); });
  sim.ScheduleAt(Duration::Hours(1.0), stopper);
  sim.RunUntil(Duration::Hours(100.0));
  EXPECT_DOUBLE_EQ(sim.now().hours(), 1.0);
}

TEST(SimulatorTest, PastSchedulingThrows) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t noop = client.Add([] {});
  sim.ScheduleAt(Duration::Hours(2.0), noop);
  sim.Run();
  EXPECT_THROW(sim.ScheduleAt(Duration::Hours(1.0), noop), std::invalid_argument);
  EXPECT_THROW(sim.ScheduleAfter(Duration::Hours(-1.0), noop), std::invalid_argument);
}

TEST(SimulatorTest, InfiniteTimeThrows) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t noop = client.Add([] {});
  EXPECT_THROW(sim.ScheduleAt(Duration::Infinite(), noop), std::invalid_argument);
}

TEST(SimulatorTest, SchedulingWithoutClientThrows) {
  Simulator sim;
  EXPECT_THROW(sim.ScheduleAt(Duration::Hours(1.0), 0), std::logic_error);
}

TEST(SimulatorTest, CascadedSchedulingFromCallbacks) {
  CallbackClient client;
  Simulator sim(&client);
  int depth = 0;
  uint16_t recurse = 0;
  recurse = client.Add([&] {
    if (++depth < 100) {
      sim.ScheduleAfter(Duration::Hours(1.0), recurse);
    }
  });
  sim.ScheduleAfter(Duration::Hours(1.0), recurse);
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
  CallbackClient client;
  Simulator sim(&client);
  uint64_t state = 987;
  Duration last = Duration::Zero();
  bool monotone = true;
  const uint16_t check = client.Add([&] {
    if (sim.now() < last) {
      monotone = false;
    }
    last = sim.now();
  });
  for (int i = 0; i < 20000; ++i) {
    const double t = static_cast<double>(SplitMix64NextForTest(state) % 1000000) / 100.0;
    sim.ScheduleAt(Duration::Hours(t), check);
  }
  sim.Run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.processed_count(), 20000u);
}

}  // namespace
}  // namespace longstore
