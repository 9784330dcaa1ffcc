// Tests for the allocation-free engine internals (the event-source table:
// arming, disarming, the FIFO tie-break at scale) and the trial-reuse
// contract (Simulator::Reset, ReplicatedStorageSystem::Reset, TrialRunner).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/storage/replicated_system.h"
#include "tests/sim_test_client.h"

namespace longstore {
namespace {

// Local hash stepper so this test does not depend on src/util/random.h.
uint64_t SplitMix64NextForTest(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- source-table machinery ----------------------------------------------

TEST(EventSlotTest, ManyArmDisarmCyclesKeepBookkeepingExact) {
  CallbackClient client;
  Simulator sim(&client, 2000);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  // Repeatedly arm two, disarm one: every disarm swap-removes from the
  // middle of the pending array, which must never miscount or misplace.
  for (uint32_t i = 0; i < 1000; ++i) {
    sim.Arm(2 * i, Duration::Hours(static_cast<double>(i) + 0.5), count);
    sim.Arm(2 * i + 1, Duration::Hours(static_cast<double>(i) + 1.0), count);
    EXPECT_TRUE(sim.Disarm(2 * i));
  }
  EXPECT_EQ(sim.pending_count(), 1000u);
  sim.Run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.processed_count(), 1000u);
  for (uint32_t i = 0; i < 2000; ++i) {
    EXPECT_FALSE(sim.armed(i));  // all fired or disarmed
  }
}

TEST(EventSlotTest, TieBreakSurvivesDisarmAndRearm) {
  CallbackClient client;
  Simulator sim(&client, 23);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  // Interleave same-time events with disarms, then re-arm the freed sources
  // at the same time; FIFO (arming) order among survivors must still hold.
  std::vector<uint32_t> free_sources;
  for (int i = 0; i < 20; ++i) {
    sim.Arm(static_cast<uint32_t>(i), Duration::Hours(5.0), record, i);
  }
  for (int i = 0; i < 20; i += 3) {
    EXPECT_TRUE(sim.Disarm(static_cast<uint32_t>(i)));
    free_sources.push_back(static_cast<uint32_t>(i));
  }
  for (uint32_t source = 20; source < 23; ++source) {
    free_sources.push_back(source);
  }
  for (int i = 20; i < 30; ++i) {  // re-arm the freed sources at the same time
    sim.Arm(free_sources[static_cast<size_t>(i - 20)], Duration::Hours(5.0), record, i);
  }
  sim.Run();
  std::vector<int> expected;
  for (int i = 0; i < 30; ++i) {
    if (i < 20 && i % 3 == 0) {
      continue;
    }
    expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventSlotTest, LargeTableKeepsOrderUnderInterleavedArming) {
  // Thousands of pending events, and handlers keep re-arming their own
  // source while the table drains: arms interleave with fires throughout.
  constexpr uint32_t kSources = 6000;
  CallbackClient client;
  Simulator sim(&client, kSources);
  uint64_t state = 12345;
  Duration last = Duration::Zero();
  int fired = 0;
  bool monotone = true;
  uint16_t chain = 0;
  chain = client.Add([&](int32_t source, int32_t) {
    if (sim.now() < last) {
      monotone = false;
    }
    last = sim.now();
    ++fired;
    if (fired % 3 == 0) {
      // Re-arm anywhere from just ahead of the clock to far past the last
      // initial event.
      const double ahead =
          static_cast<double>(SplitMix64NextForTest(state) % 1000000) / 10.0;
      sim.ArmAfter(static_cast<uint32_t>(source), Duration::Hours(ahead), chain, source);
    }
  });
  for (uint32_t i = 0; i < kSources; ++i) {
    const double t = static_cast<double>(SplitMix64NextForTest(state) % 100000) / 10.0;
    sim.Arm(i, Duration::Hours(t), chain, static_cast<int32_t>(i));
  }
  sim.RunUntil(Duration::Hours(50000.0));
  EXPECT_TRUE(monotone);
  EXPECT_GE(fired, static_cast<int>(kSources));
  EXPECT_EQ(sim.processed_count(), static_cast<uint64_t>(fired));
  EXPECT_LE(sim.pending_count(), kSources);
  // Whatever is still pending lies beyond the horizon.
  EXPECT_DOUBLE_EQ(sim.now().hours(), 50000.0);
}

TEST(EventSlotTest, ExactFifoOrderAtScaleWithCancellationsAndReplay) {
  // 6000 events over 200 distinct times (so ~30 share each time), and a
  // seeded third disarmed before the run. The fired sequence must be the
  // survivors stable-sorted by time (equal times in arming order), and a
  // Reset() engine replaying the same schedule must fire the same sequence.
  constexpr int kEvents = 6000;
  uint64_t state = 2024;
  std::vector<double> times;
  std::vector<bool> cancelled;
  for (int i = 0; i < kEvents; ++i) {
    times.push_back(static_cast<double>(SplitMix64NextForTest(state) % 200) * 0.5);
    cancelled.push_back(SplitMix64NextForTest(state) % 3 == 0);
  }

  CallbackClient client;
  Simulator sim(&client, kEvents);
  std::vector<int> fired;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { fired.push_back(a); });
  const auto arm_and_run = [&] {
    for (int i = 0; i < kEvents; ++i) {
      sim.Arm(static_cast<uint32_t>(i), Duration::Hours(times[static_cast<size_t>(i)]),
              record, i);
    }
    for (int i = 0; i < kEvents; ++i) {
      if (cancelled[static_cast<size_t>(i)]) {
        EXPECT_TRUE(sim.Disarm(static_cast<uint32_t>(i)));
      }
    }
    sim.Run();
  };

  std::vector<int> expected;
  for (int i = 0; i < kEvents; ++i) {
    if (!cancelled[static_cast<size_t>(i)]) {
      expected.push_back(i);
    }
  }
  std::stable_sort(expected.begin(), expected.end(), [&](int x, int y) {
    return times[static_cast<size_t>(x)] < times[static_cast<size_t>(y)];
  });
  ASSERT_GT(expected.size(), static_cast<size_t>(kEvents / 2));
  ASSERT_LT(expected.size(), static_cast<size_t>(kEvents));

  arm_and_run();
  EXPECT_EQ(fired, expected);
  const std::vector<int> first = fired;
  fired.clear();
  sim.Reset();
  arm_and_run();
  EXPECT_EQ(fired, first);
  EXPECT_EQ(sim.processed_count(), first.size());
}

// --- Reset() -------------------------------------------------------------

TEST(SimulatorResetTest, ResetRestoresPristineState) {
  CallbackClient client;
  Simulator sim(&client, 3);
  const uint16_t noop = client.Add([] {});
  sim.Arm(0, Duration::Hours(1.0), noop);
  sim.Arm(1, Duration::Hours(2.0), noop);
  sim.Arm(2, Duration::Hours(3.0), noop);
  sim.Step();
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.now().hours(), 0.0);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.peak_pending(), 0u);
  EXPECT_EQ(sim.processed_count(), 0u);
  EXPECT_FALSE(sim.Step());
  // The engine is fully usable again.
  sim.Arm(2, Duration::Hours(1.0), noop);
  sim.Run();
  EXPECT_EQ(sim.processed_count(), 1u);
}

TEST(SimulatorResetTest, ResetDisarmsEverySource) {
  CallbackClient client;
  Simulator sim(&client, 8);
  std::vector<int> fired;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { fired.push_back(a); });
  for (uint32_t i = 0; i < 8; ++i) {
    sim.Arm(i, Duration::Hours(static_cast<double>(8 - i)), record, static_cast<int32_t>(i));
  }
  sim.Disarm(3);
  sim.Step();  // fires source 7
  sim.Reset();
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(sim.armed(i));
    EXPECT_FALSE(sim.Disarm(i));
  }
  EXPECT_EQ(sim.source_count(), 8u);
  // Every source can be armed again, and nothing from before the Reset fires.
  for (uint32_t i = 0; i < 8; ++i) {
    sim.Arm(i, Duration::Hours(1.0), record, static_cast<int32_t>(10 + i));
  }
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{7, 10, 11, 12, 13, 14, 15, 16, 17}));
}

TEST(SimulatorResetTest, ReusedEngineReproducesEventSequence) {
  CallbackClient client;
  Simulator sim(&client, 50);
  std::vector<std::vector<int>> rounds;
  const uint16_t record =
      client.Add([&](int32_t a, int32_t) { rounds.back().push_back(a); });
  for (int round = 0; round < 3; ++round) {
    rounds.emplace_back();
    sim.Reset();
    for (int i = 0; i < 50; ++i) {
      sim.Arm(static_cast<uint32_t>(i),
              Duration::Hours(static_cast<double>((i * 7) % 13)), record, i);
      if (i % 4 == 0) {
        sim.Disarm(static_cast<uint32_t>(i));
      }
    }
    sim.Run();
  }
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(rounds[1], rounds[2]);
}

// --- trial reuse ---------------------------------------------------------

void ExpectSameOutcome(const RunOutcome& a, const RunOutcome& b) {
  ASSERT_EQ(a.loss_time.has_value(), b.loss_time.has_value());
  if (a.loss_time) {
    EXPECT_EQ(a.loss_time->hours(), b.loss_time->hours());
  }
  EXPECT_EQ(a.metrics.visible_faults, b.metrics.visible_faults);
  EXPECT_EQ(a.metrics.latent_faults, b.metrics.latent_faults);
  EXPECT_EQ(a.metrics.latent_detections, b.metrics.latent_detections);
  EXPECT_EQ(a.metrics.repairs_completed, b.metrics.repairs_completed);
  EXPECT_EQ(a.metrics.detection_latency_hours.count(),
            b.metrics.detection_latency_hours.count());
  EXPECT_EQ(a.metrics.detection_latency_hours.mean(),
            b.metrics.detection_latency_hours.mean());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(a.metrics.windows_opened[i], b.metrics.windows_opened[i]);
    EXPECT_EQ(a.metrics.windows_survived[i], b.metrics.windows_survived[i]);
    for (int j = 0; j < 2; ++j) {
      EXPECT_EQ(a.metrics.second_faults[i][j], b.metrics.second_faults[i][j]);
    }
  }
}

StorageSimConfig BusyMirrorConfig() {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params.mv = Duration::Hours(2000.0);
  config.params.ml = Duration::Hours(400.0);
  config.params.mrv = Duration::Hours(2.0);
  config.params.mrl = Duration::Hours(2.0);
  config.scrub = ScrubPolicy::Exponential(Duration::Hours(40.0));
  return config;
}

TEST(TrialRunnerTest, ReusedRunnerMatchesFreshConstruction) {
  const StorageSimConfig config = BusyMirrorConfig();
  TrialRunner runner(config);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const RunOutcome reused = runner.Run(seed, Duration::Years(500.0));
    const RunOutcome fresh = RunToLossOrHorizon(config, seed, Duration::Years(500.0));
    ExpectSameOutcome(reused, fresh);
  }
}

TEST(TrialRunnerTest, SameSeedIsDeterministicAcrossReuse) {
  TrialRunner runner(BusyMirrorConfig());
  const RunOutcome first = runner.Run(42, Duration::Years(500.0));
  // Intervening trials with other seeds must not disturb a replay.
  (void)runner.Run(7, Duration::Years(500.0));
  (void)runner.Run(99, Duration::Years(500.0));
  const RunOutcome replay = runner.Run(42, Duration::Years(500.0));
  ExpectSameOutcome(first, replay);
}

TEST(TrialRunnerTest, PaperConventionReuseMatchesFresh) {
  StorageSimConfig config;
  config.replica_count = 3;
  config.convention = RateConvention::kPaper;
  config.params.mv = Duration::Hours(1500.0);
  config.params.ml = Duration::Hours(500.0);
  config.params.mrv = Duration::Hours(10.0);
  config.params.mrl = Duration::Hours(10.0);
  config.scrub = ScrubPolicy::Exponential(Duration::Hours(60.0));
  TrialRunner runner(config);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const RunOutcome reused = runner.Run(seed, Duration::Years(300.0));
    const RunOutcome fresh = RunToLossOrHorizon(config, seed, Duration::Years(300.0));
    ExpectSameOutcome(reused, fresh);
  }
}

TEST(TrialRunnerTest, CommonModeReuseMatchesFresh) {
  StorageSimConfig config;
  config.replica_count = 3;
  config.params.mv = Duration::Hours(5000.0);
  config.params.ml = Duration::Hours(1e12);
  config.params.mrv = Duration::Hours(24.0);
  config.params.mrl = Duration::Hours(24.0);
  config.scrub = ScrubPolicy::Periodic(Duration::Hours(200.0));
  config.common_mode.push_back(
      CommonModeSource{"rack", Rate::PerHour(1.0 / 4000.0), {0, 1}, 0.8, 0.5});
  TrialRunner runner(config);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const RunOutcome reused = runner.Run(seed, Duration::Years(200.0));
    const RunOutcome fresh = RunToLossOrHorizon(config, seed, Duration::Years(200.0));
    ExpectSameOutcome(reused, fresh);
  }
}

TEST(TrialRunnerTest, ExtremeWeibullAgeDegradesGracefully) {
  // (age/scale)^shape overflows to infinity for this config; the O(1)
  // residual draw must fall back to "fails soon" (as the old rejection loop
  // did), not schedule an infinite delay and throw.
  StorageSimConfig config;
  config.replica_count = 2;
  config.params.mv = Duration::Hours(100.0);
  config.params.ml = Duration::Hours(1e6);
  config.params.mrv = Duration::Hours(2.0);
  config.params.mrl = Duration::Hours(2.0);
  config.fault_distribution = StorageSimConfig::FaultDistribution::kWeibull;
  config.weibull_shape = 100.0;
  config.initial_age_hours = {1e9, 1e9};
  TrialRunner runner(config);
  const RunOutcome outcome = runner.Run(1, Duration::Years(1.0));
  ASSERT_TRUE(outcome.loss_time.has_value());  // ancient drives fail at once
  EXPECT_LT(outcome.loss_time->hours(), 1.0);
}

TEST(TrialRunnerTest, InvalidConfigThrowsOnConstruction) {
  StorageSimConfig config;
  config.replica_count = 0;
  EXPECT_THROW(TrialRunner runner(config), std::invalid_argument);
}

TEST(SystemResetTest, ResetRestoresAllHealthy) {
  StorageSimConfig config = BusyMirrorConfig();
  Simulator sim;
  Rng rng(3);
  ReplicatedStorageSystem system(&sim, &rng, config);
  system.Start();
  sim.RunUntil(Duration::Years(1000.0));
  ASSERT_TRUE(system.lost());
  sim.Reset();
  rng.Reseed(3);
  system.Reset();
  EXPECT_FALSE(system.lost());
  EXPECT_EQ(system.faulty_count(), 0);
  for (int i = 0; i < config.replica_count; ++i) {
    EXPECT_EQ(system.replica_state(i), ReplicaState::kHealthy);
  }
  EXPECT_EQ(system.metrics().visible_faults, 0);
  // And a restarted run is valid again (Start() after Reset is legal).
  system.Start();
  sim.RunUntil(Duration::Years(1.0));
}

}  // namespace
}  // namespace longstore
