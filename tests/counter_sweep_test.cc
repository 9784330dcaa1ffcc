// SeedMode::kCounterV1 execution contract (src/sweep/sweep.h):
//
//   * the batched SoA kernel (block prefilter + RunCounter) must fold to
//     exactly the accumulator of a naive per-trial RunCounter loop — the
//     prefilter is an optimization, never an approximation;
//   * RunCellTrialRanges over any contiguous block-aligned tiling of
//     [0, N) must concatenate to the whole-run block list bit for bit (the
//     primitive behind trial-range shards), in every seed mode;
//   * ResumeSweepCells continues an adaptive run byte-identically to a cold
//     run at the tighter precision.
//
// Byte-identity is asserted through AppendTrialAccumulatorJson, the same
// exact serialization the shard protocol ships, so "equal bytes here" is
// precisely "equal bytes on the wire".

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/scenario/scenario.h"
#include "src/storage/replicated_system.h"
#include "src/sweep/accumulator.h"
#include "src/sweep/batch_exec.h"
#include "src/sweep/sweep.h"
#include "src/sweep/worker_pool.h"
#include "src/util/random.h"

namespace longstore {
namespace {

std::string AccJson(const TrialAccumulator& acc) {
  std::string out;
  AppendTrialAccumulatorJson(out, acc);
  return out;
}

// A grid that exercises the draw paths the prefilter has to model exactly:
// exponential and Weibull fault times, a non-zero initial age, exponential
// scrubbing, and a correlated cell.
SweepSpec VariedSpec() {
  SweepSpec spec(ScenarioBuilder()
                     .Replicas(2, ReplicaSpec()
                                      .FaultTimes(Duration::Hours(400.0),
                                                  Duration::Hours(200.0))
                                      .RepairTimes(Duration::Hours(10.0),
                                                   Duration::Hours(10.0))
                                      .ScrubWith(ScrubPolicy::Exponential(
                                          Duration::Hours(40.0))))
                     .Build());
  spec.AddAxis("variant");
  spec.AddPoint("exponential", 0.0, [](Scenario&) {});
  spec.AddPoint("weibull_aged", 1.0, [](Scenario& scenario) {
    for (ReplicaSpec& replica : scenario.replicas) {
      replica.Weibull(1.4).InitialAge(Duration::Hours(120.0));
    }
  });
  spec.AddPoint("correlated", 2.0,
                [](Scenario& scenario) { scenario.alpha = 0.3; });
  return spec;
}

// One range through the batched entry point.
std::vector<TrialAccumulator> RunCellTrialRange(WorkerPool& pool,
                                                const SweepSpec::Cell& cell,
                                                const SweepOptions& options,
                                                int64_t begin, int64_t end) {
  return std::move(
      RunCellTrialRanges(pool, {CellTrialRange{&cell, begin, end}}, options)
          .front());
}

SweepOptions CounterOptions(SweepOptions::Estimand estimand, int64_t trials) {
  SweepOptions options;
  options.estimand = estimand;
  options.seed_mode = SweepOptions::SeedMode::kCounterV1;
  options.mc.trials = trials;
  options.mc.seed = 4242;
  return options;
}

// Ground truth: a naive per-trial loop over TrialRunner::RunCounter — no
// prefilter, no lanes — folded with the same block structure the engine
// uses (one accumulator per 256-trial block, blocks merged in trial order).
// Welford folds are not bitwise-associative, so the block structure is part
// of the determinism contract, not an implementation detail.
TrialAccumulator PerTrialFold(const SweepSpec::Cell& cell,
                              const SweepOptions& options) {
  const uint64_t key = SweepCellSeed(options, cell);
  const Duration horizon = options.estimand == SweepOptions::Estimand::kMttdl
                               ? options.mc.max_trial_time
                               : options.mission;
  TrialRunner runner(cell.scenario);
  TrialAccumulator folded;
  for (int64_t block_begin = 0; block_begin < options.mc.trials;
       block_begin += kTrialBlockSize) {
    const int64_t block_end =
        std::min<int64_t>(block_begin + kTrialBlockSize, options.mc.trials);
    TrialAccumulator acc;
    for (int64_t t = block_begin; t < block_end; ++t) {
      const RunOutcome outcome =
          runner.RunCounter(key, static_cast<uint64_t>(t), horizon);
      if (options.estimand == SweepOptions::Estimand::kMttdl) {
        if (outcome.loss_time) {
          acc.loss_years.Add(outcome.loss_time->years());
        } else {
          acc.censored++;
        }
      } else {
        if (outcome.loss_time) {
          acc.losses++;
        }
      }
      acc.metrics.Merge(outcome.metrics);
    }
    folded.MergeFrom(acc);
  }
  return folded;
}

TEST(CounterSweepTest, BatchedKernelMatchesPerTrialRunCounterFold) {
  const SweepOptions options =
      CounterOptions(SweepOptions::Estimand::kMttdl, 600);
  std::vector<SweepSpec::Cell> cells = VariedSpec().BuildCells();
  ValidateSweepOptions(options);
  ValidateSweepCells(cells);
  const std::vector<SweepCellExecution> executions =
      RunSweepCells(SweepRunner().pool(), cells, options);
  ASSERT_EQ(executions.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].label);
    EXPECT_EQ(AccJson(executions[i].acc), AccJson(PerTrialFold(cells[i], options)));
    EXPECT_EQ(executions[i].trials, options.mc.trials);
  }
}

TEST(CounterSweepTest, PrefilterSkipsAreExactlyCensoredTrials) {
  // Long MTBFs against a short mission: almost every trial has no event
  // inside the horizon, so the block prefilter short-circuits nearly the
  // whole sweep. The per-trial loop actually runs the engine for each
  // trial, so any prefilter divergence — a wrongly skipped trial, a wrong
  // censored outcome, an unmerged metric — breaks byte-identity here.
  SweepSpec spec(ScenarioBuilder()
                     .Replicas(3, ReplicaSpec()
                                      .FaultTimes(Duration::Hours(5e7),
                                                  Duration::Hours(2e7))
                                      .RepairTimes(Duration::Hours(10.0),
                                                   Duration::Hours(10.0))
                                      .ScrubWith(ScrubPolicy::Exponential(
                                          Duration::Hours(2e6))))
                     .Build());
  spec.AddAxis("mv_hours");
  for (const double hours : {5e7, 2e5}) {
    spec.AddPoint(std::to_string(hours), hours, [hours](Scenario& scenario) {
      for (ReplicaSpec& replica : scenario.replicas) {
        replica.mv = Duration::Hours(hours);
      }
    });
  }
  SweepOptions options =
      CounterOptions(SweepOptions::Estimand::kLossProbability, 1000);
  options.mission = Duration::Years(5.0);
  std::vector<SweepSpec::Cell> cells = spec.BuildCells();
  ValidateSweepOptions(options);
  ValidateSweepCells(cells);
  const std::vector<SweepCellExecution> executions =
      RunSweepCells(SweepRunner().pool(), cells, options);
  ASSERT_EQ(executions.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].label);
    EXPECT_EQ(AccJson(executions[i].acc), AccJson(PerTrialFold(cells[i], options)));
  }
}

TEST(CounterSweepTest, TrialRangeTilingIsByteIdenticalToWholeRun) {
  const SweepOptions options =
      CounterOptions(SweepOptions::Estimand::kMttdl, 1000);
  std::vector<SweepSpec::Cell> cells = VariedSpec().BuildCells();
  ValidateSweepOptions(options);
  ValidateSweepCells(cells);
  WorkerPool& pool = SweepRunner().pool();
  const SweepSpec::Cell& cell = cells[1];  // the Weibull + initial-age cell

  const std::vector<TrialAccumulator> whole =
      RunCellTrialRange(pool, cell, options, 0, 1000);
  ASSERT_EQ(whole.size(), 4u);  // blocks [0,256) [256,512) [512,768) [768,1000)

  // A block-aligned split must reproduce the whole-run block list verbatim.
  const std::vector<TrialAccumulator> left =
      RunCellTrialRange(pool, cell, options, 0, 512);
  const std::vector<TrialAccumulator> right =
      RunCellTrialRange(pool, cell, options, 512, 1000);
  ASSERT_EQ(left.size() + right.size(), whole.size());
  for (size_t b = 0; b < whole.size(); ++b) {
    const TrialAccumulator& part = b < left.size() ? left[b] : right[b - left.size()];
    EXPECT_EQ(AccJson(part), AccJson(whole[b])) << "block " << b;
  }

  // An *unaligned* range start is allowed (adaptive continuation rounds
  // begin wherever the previous round stopped): the first block is the
  // partial span up to the next boundary, then the partition realigns to
  // absolute trial indices. A Welford fold across an unaligned seam is NOT
  // bit-identical to the aligned fold — which is exactly why the merger
  // rejects unaligned interior seams — so here we only pin the partition
  // shape and the exact trial coverage.
  const std::vector<TrialAccumulator> head =
      RunCellTrialRange(pool, cell, options, 0, 300);
  const std::vector<TrialAccumulator> tail =
      RunCellTrialRange(pool, cell, options, 300, 1000);
  ASSERT_EQ(head.size(), 2u);  // [0,256) [256,300)
  ASSERT_EQ(tail.size(), 3u);  // [300,512) [512,768) [768,1000)
  auto trials_in = [](const TrialAccumulator& acc) {
    return acc.loss_years.count() + acc.censored;
  };
  EXPECT_EQ(trials_in(head[1]), 44);
  EXPECT_EQ(trials_in(tail[0]), 212);
  // Blocks untouched by the unaligned seam are verbatim whole-run blocks.
  EXPECT_EQ(AccJson(head[0]), AccJson(whole[0]));
  EXPECT_EQ(AccJson(tail[1]), AccJson(whole[2]));
  EXPECT_EQ(AccJson(tail[2]), AccJson(whole[3]));
}

// Every seed mode starts trial t from (cell_seed, t) alone, so a tiling run
// as ranges of one pool pass folds to exactly the single-process cell.
TEST(CounterSweepTest, TrialRangeTilingMatchesWholeCellInEverySeedMode) {
  std::vector<SweepSpec::Cell> cells = VariedSpec().BuildCells();
  ValidateSweepCells(cells);
  WorkerPool& pool = SweepRunner().pool();
  for (const SweepOptions::SeedMode mode :
       {SweepOptions::SeedMode::kPerCellDerived,
        SweepOptions::SeedMode::kSharedRoot,
        SweepOptions::SeedMode::kScenarioDerived,
        SweepOptions::SeedMode::kCounterV1}) {
    SCOPED_TRACE(static_cast<int>(mode));
    SweepOptions options = CounterOptions(SweepOptions::Estimand::kMttdl, 1000);
    options.seed_mode = mode;
    ValidateSweepOptions(options);
    const std::vector<SweepCellExecution> whole =
        RunSweepCells(pool, cells, options);
    std::vector<CellTrialRange> ranges;
    for (const SweepSpec::Cell& cell : cells) {
      ranges.push_back(CellTrialRange{&cell, 0, 512});
      ranges.push_back(CellTrialRange{&cell, 512, 1000});
    }
    const std::vector<std::vector<TrialAccumulator>> parts =
        RunCellTrialRanges(pool, ranges, options);
    ASSERT_EQ(parts.size(), ranges.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      SCOPED_TRACE(cells[c].label);
      TrialAccumulator folded;
      for (const size_t r : {2 * c, 2 * c + 1}) {
        for (const TrialAccumulator& block : parts[r]) {
          folded.MergeFrom(block);
        }
      }
      EXPECT_EQ(AccJson(folded), AccJson(whole[c].acc));
    }
  }
}

TEST(CounterSweepTest, TrialRangeRejectsReversedRange) {
  const SweepOptions options =
      CounterOptions(SweepOptions::Estimand::kMttdl, 100);
  std::vector<SweepSpec::Cell> cells = VariedSpec().BuildCells();
  EXPECT_THROW(RunCellTrialRange(SweepRunner().pool(), cells[0], options, 50, 10),
               std::invalid_argument);
}

TEST(CounterSweepTest, ResumeTighterPrecisionIsByteIdenticalToColdRun) {
  std::vector<SweepSpec::Cell> cells = VariedSpec().BuildCells();
  SweepOptions loose = CounterOptions(SweepOptions::Estimand::kMttdl, 256);
  loose.adaptive = true;
  loose.relative_precision = 0.5;
  loose.max_trials = 16384;
  SweepOptions tight = loose;
  tight.relative_precision = 0.08;

  ValidateSweepOptions(tight);
  ValidateSweepCells(cells);
  WorkerPool& pool = SweepRunner().pool();
  const std::vector<SweepCellExecution> cold = RunSweepCells(pool, cells, tight);
  std::vector<SweepCellExecution> prior = RunSweepCells(pool, cells, loose);
  const std::vector<SweepCellExecution> resumed =
      ResumeSweepCells(pool, cells, tight, std::move(prior));

  ASSERT_EQ(resumed.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE(cold[i].label);
    EXPECT_EQ(AccJson(resumed[i].acc), AccJson(cold[i].acc));
    EXPECT_EQ(resumed[i].trials, cold[i].trials);
    EXPECT_EQ(resumed[i].half_width_history, cold[i].half_width_history);
  }
}

}  // namespace
}  // namespace longstore
