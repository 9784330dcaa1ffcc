#include "src/storage/replicated_system.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/stats.h"

namespace longstore {
namespace {

// Fast-failing parameters so deterministic behaviours show up in short runs.
FaultParams AggressiveParams() {
  FaultParams p;
  p.mv = Duration::Hours(1000.0);
  p.ml = Duration::Hours(500.0);
  p.mrv = Duration::Hours(20.0);
  p.mrl = Duration::Hours(20.0);
  p.mdl = Duration::Hours(50.0);  // ignored by the simulator; scrub drives MDL
  return p;
}

TEST(StorageSystemTest, SurvivesWhenFaultsAreImpossiblyRare) {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = AggressiveParams();
  config.params.mv = Duration::Hours(1e15);
  config.params.ml = Duration::Hours(1e15);
  const RunOutcome outcome = RunToLossOrHorizon(config, 1, Duration::Years(100.0));
  EXPECT_FALSE(outcome.loss_time.has_value());
  EXPECT_EQ(outcome.metrics.visible_faults + outcome.metrics.latent_faults, 0);
}

TEST(StorageSystemTest, UnscrubbedMirrorEventuallyLosesData) {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = AggressiveParams();
  config.scrub = ScrubPolicy::None();
  const RunOutcome outcome = RunToLossOrHorizon(config, 7, Duration::Years(1000.0));
  ASSERT_TRUE(outcome.loss_time.has_value());
  EXPECT_GT(outcome.loss_time->hours(), 0.0);
}

TEST(StorageSystemTest, LossStopsTheSimulation) {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = AggressiveParams();
  Simulator sim;
  Rng rng(3);
  ReplicatedStorageSystem system(&sim, &rng, config);
  system.Start();
  sim.RunUntil(Duration::Years(1000.0));
  ASSERT_TRUE(system.lost());
  // The clock stopped at the loss instant rather than running to the horizon.
  EXPECT_DOUBLE_EQ(sim.now().hours(), system.loss_time().hours());
  EXPECT_EQ(system.intact_count(), 0);
}

TEST(StorageSystemTest, StartTwiceThrows) {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = AggressiveParams();
  Simulator sim;
  Rng rng(3);
  ReplicatedStorageSystem system(&sim, &rng, config);
  system.Start();
  EXPECT_THROW(system.Start(), std::logic_error);
}

TEST(StorageSystemTest, WindowBookkeepingReconciles) {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = AggressiveParams();
  config.scrub = ScrubPolicy::Periodic(Duration::Hours(100.0));
  const RunOutcome outcome = RunToLossOrHorizon(config, 11, Duration::Years(2000.0));
  const SimMetrics& m = outcome.metrics;
  const int64_t opened = m.windows_opened[0] + m.windows_opened[1];
  const int64_t survived = m.windows_survived[0] + m.windows_survived[1];
  const int64_t second = m.second_faults[0][0] + m.second_faults[0][1] +
                         m.second_faults[1][0] + m.second_faults[1][1];
  EXPECT_GT(opened, 0);
  // Every opened window either survived or saw a second fault; at most one
  // window can still be open when the run ends.
  EXPECT_GE(opened, survived + second);
  EXPECT_LE(opened - (survived + second), 1);
}

TEST(StorageSystemTest, PeriodicScrubDetectionLatencyIsHalfPeriod) {
  StorageSimConfig config;
  config.replica_count = 8;  // loss-proof, so the run spans the full horizon
  config.params = AggressiveParams();
  config.params.mv = Duration::Hours(1e12);  // isolate latent behaviour
  config.params.ml = Duration::Hours(200.0);
  config.params.mrl = Duration::Hours(0.001);
  const Duration period = Duration::Hours(80.0);
  config.scrub = ScrubPolicy::Periodic(period);
  const RunOutcome outcome = RunToLossOrHorizon(config, 13, Duration::Years(200.0));
  const RunningStats& latency = outcome.metrics.detection_latency_hours;
  ASSERT_GT(latency.count(), 1000);
  EXPECT_NEAR(latency.mean(), period.hours() / 2.0, period.hours() * 0.05);
  // No detection can take longer than a full period.
  EXPECT_LE(latency.max(), period.hours() * (1.0 + 1e-9));
}

TEST(StorageSystemTest, ExponentialAuditLatencyMatchesMean) {
  StorageSimConfig config;
  config.replica_count = 8;
  config.params = AggressiveParams();
  config.params.mv = Duration::Hours(1e12);
  config.params.ml = Duration::Hours(200.0);
  config.params.mrl = Duration::Hours(0.001);
  config.scrub = ScrubPolicy::Exponential(Duration::Hours(60.0));
  const RunOutcome outcome = RunToLossOrHorizon(config, 17, Duration::Years(200.0));
  const RunningStats& latency = outcome.metrics.detection_latency_hours;
  ASSERT_GT(latency.count(), 1000);
  EXPECT_NEAR(latency.mean(), 60.0, 4.0);
}

TEST(StorageSystemTest, NoDetectionMeansLatentFaultsNeverClear) {
  StorageSimConfig config;
  config.replica_count = 3;  // survives long enough to accumulate faults
  config.params = AggressiveParams();
  config.params.mv = Duration::Hours(1e12);
  config.scrub = ScrubPolicy::None();
  const RunOutcome outcome = RunToLossOrHorizon(config, 19, Duration::Years(50.0));
  EXPECT_EQ(outcome.metrics.latent_detections, 0);
  EXPECT_EQ(outcome.metrics.repairs_completed, 0);
}

TEST(StorageSystemTest, VisibleFaultSurfacesLatentWhenEnabled) {
  StorageSimConfig config;
  config.replica_count = 3;
  config.params = AggressiveParams();
  config.params.ml = Duration::Hours(300.0);
  config.scrub = ScrubPolicy::None();
  config.visible_fault_surfaces_latent = true;
  const RunOutcome outcome = RunToLossOrHorizon(config, 23, Duration::Years(100.0));
  // Without scrubbing, the only detection channel is the surfacing path.
  EXPECT_GT(outcome.metrics.latent_detections, 0);
}

TEST(StorageSystemTest, DeterministicRepairHasFixedDuration) {
  StorageSimConfig config;
  config.replica_count = 4;
  config.params = AggressiveParams();
  config.params.mv = Duration::Hours(300.0);
  config.params.ml = Duration::Hours(1e12);
  config.params.mrv = Duration::Hours(7.0);
  config.repair_distribution = StorageSimConfig::RepairDistribution::kDeterministic;
  const RunOutcome outcome = RunToLossOrHorizon(config, 29, Duration::Years(100.0));
  const RunningStats& repair = outcome.metrics.repair_duration_hours;
  ASSERT_GT(repair.count(), 100);
  EXPECT_NEAR(repair.mean(), 7.0, 1e-9);
  EXPECT_NEAR(repair.min(), 7.0, 1e-9);
  EXPECT_NEAR(repair.max(), 7.0, 1e-9);
}

TEST(StorageSystemTest, CommonModeEventCanDestroyAllReplicasAtOnce) {
  StorageSimConfig config;
  config.replica_count = 4;
  config.params = AggressiveParams();
  config.params.mv = Duration::Hours(1e12);  // only the common mode acts
  config.params.ml = Duration::Hours(1e12);
  config.common_mode.push_back(
      CommonModeSource{"site disaster", Rate::PerYear(0.5), {0, 1, 2, 3}, 1.0, 1.0});
  const RunOutcome outcome = RunToLossOrHorizon(config, 31, Duration::Years(100.0));
  ASSERT_TRUE(outcome.loss_time.has_value());
  EXPECT_GE(outcome.metrics.common_mode_events, 1);
  EXPECT_GE(outcome.metrics.common_mode_faults, 4);
}

TEST(StorageSystemTest, CommonModeHitProbabilityScalesImpact) {
  StorageSimConfig config;
  config.replica_count = 20;
  config.params = AggressiveParams();
  config.params.mv = Duration::Hours(1e12);
  config.params.ml = Duration::Hours(1e12);
  config.params.mrv = Duration::Hours(1.0);
  std::vector<int> everyone(20);
  for (int i = 0; i < 20; ++i) {
    everyone[i] = i;
  }
  config.common_mode.push_back(
      CommonModeSource{"power", Rate::PerYear(10.0), everyone, 0.3, 1.0});
  const RunOutcome outcome = RunToLossOrHorizon(config, 37, Duration::Years(50.0));
  ASSERT_GT(outcome.metrics.common_mode_events, 100);
  const double hits_per_event =
      static_cast<double>(outcome.metrics.common_mode_faults) /
      static_cast<double>(outcome.metrics.common_mode_events);
  // 20 members x 0.3 hit probability = 6 expected faults per event (slightly
  // fewer since already-faulty members are skipped).
  EXPECT_NEAR(hits_per_event, 6.0, 0.6);
}

// Every common-mode event disarms and re-arms the fault clocks of the
// replicas it hits (under the old lazily-cancelled heap this configuration
// piled up 2775 records for 21 live events). With one slot per source the
// pending events can never exceed the system's declared source count.
TEST(StorageSystemTest, PendingEventsNeverExceedSourceCount) {
  StorageSimConfig config;
  config.replica_count = 20;
  config.params = AggressiveParams();
  config.params.mv = Duration::Hours(1e12);
  config.params.ml = Duration::Hours(1e12);
  config.params.mrv = Duration::Hours(1.0);
  std::vector<int> everyone(20);
  for (int i = 0; i < 20; ++i) {
    everyone[i] = i;
  }
  config.common_mode.push_back(
      CommonModeSource{"power", Rate::PerYear(10.0), everyone, 0.3, 1.0});
  Simulator sim;
  Rng rng(37);
  ReplicatedStorageSystem system(&sim, &rng, config);
  // Four sources per replica, the two system-level ones, one common-mode.
  EXPECT_EQ(sim.source_count(), 4u * 20u + 2u + 1u);
  system.Start();
  size_t max_live = 0;
  while (!system.lost() && sim.Step(Duration::Years(50.0))) {
    max_live = std::max(max_live, sim.pending_count());
  }
  ASSERT_GT(system.metrics().common_mode_events, 100);
  EXPECT_GE(sim.peak_pending(), max_live);
  EXPECT_LE(sim.peak_pending(), static_cast<size_t>(sim.source_count()));
}

TEST(StorageSystemTest, PaperConventionRunsSerialRepair) {
  StorageSimConfig config;
  config.replica_count = 3;
  config.convention = RateConvention::kPaper;
  config.params = AggressiveParams();
  config.scrub = ScrubPolicy::Exponential(Duration::Hours(50.0));
  const RunOutcome outcome = RunToLossOrHorizon(config, 41, Duration::Years(500.0));
  // Exercises the serial path: faults occur, repairs complete, audits detect.
  EXPECT_GT(outcome.metrics.visible_faults, 0);
  EXPECT_GT(outcome.metrics.latent_detections, 0);
  EXPECT_GT(outcome.metrics.repairs_completed, 0);
}

TEST(StorageSystemTest, ReproducibleAcrossIdenticalSeeds) {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = AggressiveParams();
  config.scrub = ScrubPolicy::Periodic(Duration::Hours(120.0));
  const RunOutcome a = RunToLossOrHorizon(config, 99, Duration::Years(300.0));
  const RunOutcome b = RunToLossOrHorizon(config, 99, Duration::Years(300.0));
  ASSERT_EQ(a.loss_time.has_value(), b.loss_time.has_value());
  if (a.loss_time) {
    EXPECT_DOUBLE_EQ(a.loss_time->hours(), b.loss_time->hours());
  }
  EXPECT_EQ(a.metrics.visible_faults, b.metrics.visible_faults);
  EXPECT_EQ(a.metrics.latent_faults, b.metrics.latent_faults);
}

TEST(StorageSystemTest, DifferentSeedsDiverge) {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = AggressiveParams();
  const RunOutcome a = RunToLossOrHorizon(config, 1, Duration::Years(300.0));
  const RunOutcome b = RunToLossOrHorizon(config, 2, Duration::Years(300.0));
  const bool same_loss =
      a.loss_time.has_value() == b.loss_time.has_value() &&
      (!a.loss_time || a.loss_time->hours() == b.loss_time->hours());
  EXPECT_FALSE(same_loss && a.metrics.visible_faults == b.metrics.visible_faults &&
               a.metrics.latent_faults == b.metrics.latent_faults);
}

TEST(StorageSystemTest, TraceRecordsFaultLifecycle) {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = AggressiveParams();
  config.scrub = ScrubPolicy::Periodic(Duration::Hours(100.0));
  Simulator sim;
  Rng rng(5);
  TraceRecorder trace(true);
  ReplicatedStorageSystem system(&sim, &rng, config, &trace);
  system.Start();
  sim.RunUntil(Duration::Years(50.0));
  EXPECT_GT(trace.CountKind(TraceEventKind::kVisibleFault) +
                trace.CountKind(TraceEventKind::kLatentFault),
            0u);
  if (system.lost()) {
    EXPECT_EQ(trace.CountKind(TraceEventKind::kDataLoss), 1u);
  }
  // Repairs traced in start/complete pairs (an in-flight repair at the end of
  // the run may leave one unmatched start).
  const size_t starts = trace.CountKind(TraceEventKind::kRepairStarted);
  const size_t completes = trace.CountKind(TraceEventKind::kRepairCompleted);
  EXPECT_GE(starts, completes);
  EXPECT_LE(starts - completes, 2u);
}

TEST(StorageSystemTest, WeibullWearOutAcceleratesOverLife) {
  // Shape 4 wear-out: almost no faults in the first tenth of life.
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = AggressiveParams();
  config.params.mv = Duration::Hours(10000.0);
  config.params.ml = Duration::Hours(1e12);
  config.params.alpha = 1.0;
  config.fault_distribution = StorageSimConfig::FaultDistribution::kWeibull;
  config.weibull_shape = 4.0;
  int early_faults = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const RunOutcome outcome =
        RunToLossOrHorizon(config, 1000 + seed, Duration::Hours(1000.0));
    early_faults += static_cast<int>(outcome.metrics.visible_faults);
  }
  // Exponential would give ~200 * 2 * 0.1 = 40 faults in this window; the
  // Weibull hazard at a tenth of scale is ~(0.1)^3 of that.
  EXPECT_LT(early_faults, 5);
}

}  // namespace
}  // namespace longstore
