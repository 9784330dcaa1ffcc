// The eventless-trial prefilter under the xoshiro seed modes
// (kSharedRoot, kPerCellDerived, kScenarioDerived), where trial t runs
// TrialRunner::Run(DeriveSeed(cell_seed, t)):
//
//   * a sweep must fold to exactly the accumulator of a naive per-trial Run
//     loop, for every estimand — skipping a trial is an optimization, never
//     an approximation;
//   * each site's integer threshold must give the exact expression's verdict
//     for every draw near the threshold and for draws sampled across the
//     whole range;
//   * an identity FaultBias runs the sampler-free path and must reproduce
//     the sampler's bytes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/rare/biased_sampler.h"
#include "src/scenario/scenario.h"
#include "src/storage/replicated_system.h"
#include "src/sweep/accumulator.h"
#include "src/sweep/batch_exec.h"
#include "src/sweep/sweep.h"
#include "src/util/random.h"

namespace longstore {
namespace {

using Estimand = SweepOptions::Estimand;
using SeedMode = SweepOptions::SeedMode;

constexpr uint64_t kStates = uint64_t{1} << 53;  // values of Next() >> 11

std::string AccJson(const TrialAccumulator& acc) {
  std::string out;
  AppendTrialAccumulatorJson(out, acc);
  return out;
}

ReplicaSpec Disk() {
  return ReplicaSpec()
      .FaultTimes(Duration::Hours(3000.0), Duration::Hours(1500.0))
      .RepairTimes(Duration::Hours(60.0), Duration::Hours(60.0))
      .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(200.0)));
}

// Short horizons against these means leave roughly a third to two thirds of
// trials eventless, so both the skip path and the engine path run in every
// cell where the prefilter applies.
SweepSpec PrefilterCells() {
  SweepSpec spec(ScenarioBuilder().Replicas(2, Disk()).Build());
  spec.AddCell("exponential", ScenarioBuilder().Replicas(2, Disk()).Build());
  spec.AddCell("paper", ScenarioBuilder()
                            .Replicas(3, Disk())
                            .Convention(RateConvention::kPaper)
                            .Build());
  spec.AddCell("weibull_aged",
               ScenarioBuilder()
                   .Replicas(2, Disk().Weibull(1.4).InitialAge(Duration::Hours(400.0)))
                   .Build());
  spec.AddCell("common_mode", ScenarioBuilder()
                                  .Replicas(2, Disk())
                                  .CommonModeAll("site", Rate::PerHour(1.0 / 4000.0),
                                                 0.5, 0.5)
                                  .Build());
  spec.AddCell("infinite_latent",
               ScenarioBuilder()
                   .AddReplica(Disk())
                   .AddReplica(Disk().FaultTimes(Duration::Hours(3000.0),
                                                 Duration::Infinite()))
                   .Build());
  // Periodic scrub ticks recorded as events: inside every horizon below the
  // first tick fires in every trial and the prefilter must decline; beyond
  // it the tick is no obstacle.
  spec.AddCell("scrub_passes_inside",
               ScenarioBuilder()
                   .Replicas(2, Disk().ScrubEvery(Duration::Hours(50.0)))
                   .RecordScrubPasses()
                   .Build());
  spec.AddCell("scrub_passes_beyond",
               ScenarioBuilder()
                   .Replicas(2, Disk().ScrubEvery(Duration::Hours(5000.0)))
                   .RecordScrubPasses()
                   .Build());
  return spec;
}

SweepOptions Options(SeedMode mode, Estimand estimand) {
  SweepOptions options;
  options.seed_mode = mode;
  options.estimand = estimand;
  options.mc.trials = 700;  // two full blocks and a partial one
  options.mc.seed = 2718;
  options.mc.max_trial_time = Duration::Hours(400.0);
  options.mission = Duration::Hours(300.0);
  options.window = Duration::Hours(250.0);
  return options;
}

Duration Horizon(const SweepOptions& options) {
  switch (options.estimand) {
    case Estimand::kMttdl:
      return options.mc.max_trial_time;
    case Estimand::kCensoredMttdl:
      return options.window;
    default:
      return options.mission;
  }
}

// Ground truth: every trial through the engine, seeded as the xoshiro seed
// modes seed it, folded per estimand with the sweep's block structure. A
// non-null `bias` attaches the importance sampler to every trial.
TrialAccumulator PerTrialFold(const SweepSpec::Cell& cell,
                              const SweepOptions& options,
                              const FaultBias* bias = nullptr) {
  const uint64_t cell_seed = SweepCellSeed(options, cell);
  const Duration horizon = Horizon(options);
  std::unique_ptr<TrialRunner> runner =
      bias != nullptr ? std::make_unique<TrialRunner>(
                            cell.scenario, ConfigValidation::kValidate, *bias)
                      : std::make_unique<TrialRunner>(cell.scenario);
  TrialAccumulator folded;
  for (int64_t block_begin = 0; block_begin < options.mc.trials;
       block_begin += kTrialBlockSize) {
    const int64_t block_end =
        std::min<int64_t>(block_begin + kTrialBlockSize, options.mc.trials);
    TrialAccumulator acc;
    for (int64_t t = block_begin; t < block_end; ++t) {
      const RunOutcome outcome =
          runner->Run(DeriveSeed(cell_seed, static_cast<uint64_t>(t)), horizon);
      switch (options.estimand) {
        case Estimand::kMttdl:
          if (outcome.loss_time) {
            acc.loss_years.Add(outcome.loss_time->years());
          } else {
            acc.censored++;
          }
          break;
        case Estimand::kLossProbability:
          acc.losses += outcome.loss_time ? 1 : 0;
          break;
        case Estimand::kCensoredMttdl:
          if (outcome.loss_time) {
            acc.losses++;
            acc.observed_years += outcome.loss_time->years();
          } else {
            acc.observed_years += horizon.years();
          }
          break;
        case Estimand::kWeightedLossProbability:
          if (outcome.loss_time) {
            acc.losses++;
            acc.weighted.Add(std::exp(outcome.log_weight));
          } else {
            acc.weighted.Add(0.0);
          }
          break;
      }
      acc.metrics.Merge(outcome.metrics);
    }
    folded.MergeFrom(acc);
  }
  return folded;
}

// How many of the first `trials` trials the prefilter skips; -1 when it
// declines.
int64_t SkippedTrials(const SweepSpec::Cell& cell, const SweepOptions& options) {
  TrialRunner runner(cell.scenario);
  const uint64_t cell_seed = SweepCellSeed(options, cell);
  int64_t skipped = 0;
  for (int64_t begin = 0; begin < options.mc.trials; begin += kTrialBlockSize) {
    const int count =
        static_cast<int>(std::min<int64_t>(kTrialBlockSize, options.mc.trials - begin));
    uint8_t skip[kTrialPrefilterMaxBlock];
    if (!runner.PrefilterBlock(TrialStreams::kDerived, cell_seed, begin, count,
                               Horizon(options), skip)) {
      return -1;
    }
    skipped += std::count(skip, skip + count, uint8_t{1});
  }
  return skipped;
}

TEST(PrefilterTest, DerivedKernelMatchesPerTrialRunFold) {
  std::vector<SweepSpec::Cell> cells = PrefilterCells().BuildCells();
  ValidateSweepCells(cells);
  const FaultBias identity;
  ASSERT_TRUE(identity.is_identity());
  for (const SeedMode mode :
       {SeedMode::kSharedRoot, SeedMode::kPerCellDerived, SeedMode::kScenarioDerived}) {
    for (const Estimand estimand :
         {Estimand::kMttdl, Estimand::kLossProbability, Estimand::kCensoredMttdl,
          Estimand::kWeightedLossProbability}) {
      const SweepOptions options = Options(mode, estimand);
      ValidateSweepOptions(options);
      const std::vector<SweepCellExecution> executions =
          RunSweepCells(SweepRunner().pool(), cells, options);
      ASSERT_EQ(executions.size(), cells.size());
      for (size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].label + " mode " + std::to_string(static_cast<int>(mode)) +
                     " estimand " + std::to_string(static_cast<int>(estimand)));
        // The weighted estimand's reference keeps the sampler on, so this
        // also pins the identity bias's switch to the sampler-free runner.
        const FaultBias* bias =
            estimand == Estimand::kWeightedLossProbability ? &identity : nullptr;
        EXPECT_EQ(AccJson(executions[i].acc),
                  AccJson(PerTrialFold(cells[i], options, bias)));
      }
    }
  }
}

TEST(PrefilterTest, SkipsTrialsWhereItAppliesAndDeclinesOnInHorizonScrubTicks) {
  const std::vector<SweepSpec::Cell> cells = PrefilterCells().BuildCells();
  const SweepOptions options = Options(SeedMode::kPerCellDerived, Estimand::kLossProbability);
  for (const SweepSpec::Cell& cell : cells) {
    SCOPED_TRACE(cell.label);
    const int64_t skipped = SkippedTrials(cell, options);
    if (cell.label == "scrub_passes_inside") {
      EXPECT_EQ(skipped, -1);
    } else {
      // Both paths of the fold are exercised.
      EXPECT_GT(skipped, options.mc.trials / 10);
      EXPECT_LT(skipped, options.mc.trials - options.mc.trials / 10);
    }
  }
}

TEST(PrefilterTest, SamplerAttachedDeclines) {
  const Scenario scenario = ScenarioBuilder().Replicas(2, Disk()).Build();
  FaultBias tilted;
  tilted.theta_visible = 4.0;
  tilted.theta_latent = 4.0;
  TrialRunner runner(scenario, ConfigValidation::kValidate, tilted);
  uint8_t skip[kTrialPrefilterMaxBlock];
  EXPECT_FALSE(runner.PrefilterBlock(TrialStreams::kDerived, 1, 0, 16,
                                     Duration::Hours(300.0), skip));
}

// The first b whose exact delay is within the horizon (kStates if none),
// bisected independently of the kernel.
uint64_t ExactThreshold(const ReplicatedStorageSystem::InitialDrawSite& site,
                        double horizon_hours) {
  uint64_t lo = 0;
  uint64_t hi = kStates;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (site.DelayHours(mid) > horizon_hours) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void ExpectThresholdsExact(const Scenario& scenario, double horizon_hours,
                           bool expect_fast_path) {
  TrialRunner runner(scenario);
  const auto& sites = runner.system().initial_draw_sites();
  ASSERT_FALSE(sites.empty());
  Rng sampler(99);
  for (size_t j = 0; j < sites.size(); ++j) {
    SCOPED_TRACE("site " + std::to_string(j) + " horizon " +
                 std::to_string(horizon_hours));
    const auto& site = sites[j];
    const InitialDrawThreshold threshold =
        ComputeInitialDrawThreshold(site, horizon_hours);
    const uint64_t t = ExactThreshold(site, horizon_hours);
    const uint64_t lo = t > 2 * kInitialDrawMargin ? t - 2 * kInitialDrawMargin : 0;
    const uint64_t hi = std::min(kStates, t + 2 * kInitialDrawMargin);
    int64_t mismatches = 0;
    const auto check_range = [&](uint64_t from, uint64_t to) {
      for (uint64_t b = from; b < to; ++b) {
        mismatches += InitialDrawBeyond(site, threshold, b, horizon_hours) !=
                      (site.DelayHours(b) > horizon_hours);
      }
    };
    check_range(lo, hi);
    // Both ends of the range, where the Weibull boundary guard acts.
    check_range(0, 2 * kInitialDrawMargin);
    check_range(kStates - 2 * kInitialDrawMargin, kStates);
    for (int k = 0; k < 20000; ++k) {
      const uint64_t b = sampler.Next() >> 11;
      mismatches += InitialDrawBeyond(site, threshold, b, horizon_hours) !=
                    (site.DelayHours(b) > horizon_hours);
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_LE(threshold.beyond_below, t);
    EXPECT_GE(threshold.within_from, t);
    if (expect_fast_path) {
      // The integer test decides all but a sliver of the draws.
      EXPECT_LT(threshold.within_from - threshold.beyond_below, kStates / 1024);
    }
  }
}

TEST(PrefilterTest, IntegerThresholdsAgreeWithTheExactExpression) {
  for (const SweepSpec::Cell& cell : PrefilterCells().BuildCells()) {
    SCOPED_TRACE(cell.label);
    for (const double horizon_hours : {250.0, 300.0, 400.0}) {
      ExpectThresholdsExact(cell.scenario, horizon_hours, /*expect_fast_path=*/true);
    }
  }
}

TEST(PrefilterTest, ThresholdsStayExactAtTheEdges) {
  // A very old Weibull replica: age0^k (~1e10) dwarfs -log(u) for u near 1,
  // so the pre-pow argument holds one value across runs of billions of
  // draws. Put the threshold there, where the delay is flat in steps far
  // wider than the margin.
  const Scenario old = ScenarioBuilder()
                           .Replicas(2, Disk().Weibull(2.5).InitialAge(
                                            Duration::Hours(3.4e7)))
                           .Build();
  {
    TrialRunner runner(old);
    const auto& site = runner.system().initial_draw_sites()[0];
    for (const uint64_t from_top : {uint64_t{1} << 20, uint64_t{1} << 36}) {
      ExpectThresholdsExact(old, site.DelayHours(kStates - from_top),
                            /*expect_fast_path=*/false);
    }
  }
  // Horizons at and below the Weibull guard delay (1e-9 h), a zero horizon,
  // and one no draw can clear.
  const Scenario young = ScenarioBuilder()
                             .Replicas(2, Disk().Weibull(0.7).InitialAge(
                                              Duration::Hours(10.0)))
                             .Build();
  for (const double horizon_hours : {0.0, 1e-12, 1e-9, 1e9}) {
    ExpectThresholdsExact(young, horizon_hours, /*expect_fast_path=*/false);
    ExpectThresholdsExact(ScenarioBuilder().Replicas(2, Disk()).Build(),
                          horizon_hours, /*expect_fast_path=*/false);
  }
  // A short-lived new Weibull replica under a horizon below the guard: the
  // last ~1e5 draws schedule within the horizon, except the very last (u =
  // 1), whose zero residual the guard turns into 1e-9 h, beyond it.
  ExpectThresholdsExact(
      ScenarioBuilder()
          .Replicas(2, Disk()
                           .FaultTimes(Duration::Hours(10.0), Duration::Hours(20.0))
                           .Weibull(1.0))
          .Build(),
      1e-10, /*expect_fast_path=*/false);
}

TEST(PrefilterTest, IdentityBiasSweepMatchesSamplerForcedOn) {
  // The sweep runs an identity bias on the sampler-free runner; the
  // reference below keeps the sampler attached to every trial. The result
  // documents must be the same bytes.
  const SweepSpec spec = PrefilterCells();
  SweepOptions options = Options(SeedMode::kPerCellDerived,
                                 Estimand::kWeightedLossProbability);
  ASSERT_TRUE(options.bias.is_identity());
  const std::string sweep = SweepRunner().Run(spec, options).ToJson();

  std::vector<SweepCellExecution> forced;
  for (const SweepSpec::Cell& cell : spec.BuildCells()) {
    SweepCellExecution execution;
    execution.index = cell.index;
    execution.label = cell.label;
    execution.coordinates = cell.coordinates;
    execution.acc = PerTrialFold(cell, options, &options.bias);
    execution.trials = options.mc.trials;
    execution.rounds = 1;
    forced.push_back(std::move(execution));
  }
  const std::string reference =
      FinalizeSweepCells(std::move(forced), spec.AxisNames(), options.estimand,
                         options.mc.confidence)
          .ToJson();
  EXPECT_EQ(sweep, reference);
}

}  // namespace
}  // namespace longstore
