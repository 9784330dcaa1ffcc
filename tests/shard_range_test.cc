// Protocol-version-3 trial-range sharding: a shard may own trials [a, b) of
// a cell instead of the whole cell (any seed mode), shipping the
// canonical block-partition accumulators as a ShardCellFragment. The merger
// assembles a cell the moment its fragments tile [0, cell_trials) and the
// assembled fold must be byte-identical to the whole-cell single-process
// run — plus the strict-rejection catalogue for every way a fragment set can
// fail to be a tiling.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/scenario/scenario.h"
#include "src/shard/shard.h"
#include "src/sweep/batch_exec.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

SweepSpec RangeSpec() {
  SweepSpec spec(ScenarioBuilder()
                     .Replicas(2, ReplicaSpec()
                                      .FaultTimes(Duration::Hours(400.0),
                                                  Duration::Hours(200.0))
                                      .RepairTimes(Duration::Hours(10.0),
                                                   Duration::Hours(10.0))
                                      .ScrubWith(ScrubPolicy::Exponential(
                                          Duration::Hours(40.0))))
                     .Build());
  spec.AddAxis("mv_hours");
  for (const double hours : {400.0, 800.0}) {
    spec.AddPoint(std::to_string(static_cast<int>(hours)), hours,
                  [hours](Scenario& scenario) {
                    for (ReplicaSpec& replica : scenario.replicas) {
                      replica.mv = Duration::Hours(hours);
                    }
                  });
  }
  return spec;
}

SweepOptions RangeOptions() {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.seed_mode = SweepOptions::SeedMode::kCounterV1;
  options.mc.trials = 1000;
  options.mc.seed = 77;
  return options;
}

// The canonical whole-sweep shard (every cell, no ranges), the base every
// test derives its range shards from.
ShardSpec BaseShard(const SweepOptions& options = RangeOptions()) {
  return ShardPlan(RangeSpec(), options, 1).shards().front();
}

ShardSpec WithRanges(std::vector<ShardCellRange> ranges) {
  ShardSpec shard = BaseShard();
  shard.shard_count = 2;
  shard.ranges = std::move(ranges);
  return shard;
}

// A shard owning only the listed (cell index, range) slices; end = -1 keeps
// the cell whole. Cells absent from `parts` are simply not in the shard —
// the protocol's way of saying "someone else runs those trials".
ShardSpec Slice(const std::vector<std::pair<size_t, ShardCellRange>>& parts,
                const SweepOptions& options = RangeOptions()) {
  const ShardSpec base = BaseShard(options);
  ShardSpec shard = base;
  shard.shard_count = 2;
  shard.cells.clear();
  shard.ranges.clear();
  bool any_partial = false;
  for (const auto& [index, range] : parts) {
    shard.cells.push_back(base.cells[index]);
    shard.ranges.push_back(range);
    any_partial = any_partial || range.end >= 0;
  }
  if (!any_partial) {
    shard.ranges.clear();
  }
  return shard;
}

TEST(ShardRangeTest, SpecRangesSurviveTheJsonRoundTrip) {
  const ShardSpec shard = WithRanges({{0, -1}, {256, 768}});
  const std::string json = shard.ToJson();
  const ShardSpec parsed = ShardSpec::FromJson(json);
  ASSERT_EQ(parsed.ranges.size(), 2u);
  // The whole-cell sentinel round-trips as "no range key" on the wire.
  EXPECT_EQ(parsed.ranges[0].begin, 0);
  EXPECT_EQ(parsed.ranges[0].end, -1);
  EXPECT_EQ(parsed.ranges[1].begin, 256);
  EXPECT_EQ(parsed.ranges[1].end, 768);
  // Round-tripping again is a fixed point (canonical form).
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(ShardRangeTest, WholeCellSpecEmitsNoRangeKeys) {
  const std::string json = BaseShard().ToJson();
  EXPECT_EQ(json.find("\"range\""), std::string::npos);
  const ShardSpec parsed = ShardSpec::FromJson(json);
  EXPECT_TRUE(parsed.ranges.empty());
}

TEST(ShardRangeTest, ToJsonRejectsMismatchedRangeVector) {
  ShardSpec shard = BaseShard();
  shard.ranges = {{0, 512}};  // 1 range, 2 cells
  EXPECT_THROW(shard.ToJson(), std::invalid_argument);
}

TEST(ShardRangeTest, ResultFragmentsSurviveTheJsonRoundTrip) {
  const ShardResult result = RunShard(Slice({{0, {0, 512}}, {1, {0, -1}}}));
  ASSERT_EQ(result.fragments.size(), 1u);
  ASSERT_EQ(result.cells.size(), 1u);
  const std::string json = result.ToJson();
  const ShardResult parsed = ShardResult::FromJson(json);
  ASSERT_EQ(parsed.fragments.size(), 1u);
  EXPECT_EQ(parsed.fragments[0].index, result.fragments[0].index);
  EXPECT_EQ(parsed.fragments[0].trial_begin, 0);
  EXPECT_EQ(parsed.fragments[0].trial_end, 512);
  EXPECT_EQ(parsed.fragments[0].cell_trials, 1000);
  ASSERT_EQ(parsed.fragments[0].blocks.size(), 2u);
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(ShardRangeTest, FragmentMergeIsByteIdenticalToSingleProcess) {
  const std::string expected =
      SweepRunner().Run(RangeSpec(), RangeOptions()).ToJson();

  // Cell 0 split [0,512)+[512,1000) across two shards; cell 1 arrives whole
  // alongside the first fragment (mixed whole/ranged documents).
  const ShardResult first = RunShard(Slice({{0, {0, 512}}, {1, {0, -1}}}));
  const ShardResult second = RunShard(Slice({{0, {512, 1000}}}));
  ASSERT_EQ(first.cells.size(), 1u);
  ASSERT_EQ(first.fragments.size(), 1u);
  ASSERT_EQ(second.cells.size(), 0u);
  ASSERT_EQ(second.fragments.size(), 1u);

  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "second,first" : "first,second");
    ShardMerger merger;
    merger.Add(reversed ? second : first, "a");
    EXPECT_FALSE(merger.complete());
    merger.Add(reversed ? first : second, "b");
    ASSERT_TRUE(merger.complete());
    EXPECT_EQ(merger.Finish().ToJson(), expected);
  }
}

TEST(ShardRangeTest, ThreeWaySplitMergesByteIdentically) {
  const std::string expected =
      SweepRunner().Run(RangeSpec(), RangeOptions()).ToJson();
  // Both cells split three ways, serialized through the wire format and
  // merged in an order that interleaves the two cells' fragments.
  ShardMerger merger;
  merger.AddJson(
      RunShard(Slice({{0, {0, 256}}, {1, {512, 1000}}})).ToJson(), "a");
  merger.AddJson(
      RunShard(Slice({{0, {256, 768}}, {1, {0, 256}}})).ToJson(), "b");
  merger.AddJson(
      RunShard(Slice({{0, {768, 1000}}, {1, {256, 512}}})).ToJson(), "c");
  ASSERT_TRUE(merger.complete());
  EXPECT_EQ(merger.Finish().ToJson(), expected);
}

// Every seed mode starts trial t from (cell_seed, t) alone, so ranges are
// not limited to counter streams.
TEST(ShardRangeTest, FragmentMergeIsByteIdenticalInEverySeedMode) {
  for (const SweepOptions::SeedMode mode :
       {SweepOptions::SeedMode::kPerCellDerived,
        SweepOptions::SeedMode::kSharedRoot,
        SweepOptions::SeedMode::kScenarioDerived,
        SweepOptions::SeedMode::kCounterV1}) {
    SCOPED_TRACE(static_cast<int>(mode));
    SweepOptions options = RangeOptions();
    options.seed_mode = mode;
    ShardMerger merger;
    merger.AddJson(
        RunShard(Slice({{0, {0, 512}}, {1, {512, 1000}}}, options)).ToJson(),
        "a");
    merger.AddJson(
        RunShard(Slice({{0, {512, 1000}}, {1, {0, 512}}}, options)).ToJson(),
        "b");
    ASSERT_TRUE(merger.complete());
    EXPECT_EQ(merger.Finish().ToJson(),
              SweepRunner().Run(RangeSpec(), options).ToJson());
  }
}

TEST(ShardRangeTest, RunShardRejectsRangesOnAdaptiveSpecs) {
  ShardSpec shard = WithRanges({{0, 512}, {0, -1}});
  shard.options.adaptive = true;
  shard.options.relative_precision = 0.1;
  shard.options.max_trials = 10000;
  EXPECT_THROW(RunShard(shard), std::invalid_argument);
}

TEST(ShardRangeTest, RunShardRejectsRangeBeyondTrialCount) {
  EXPECT_THROW(RunShard(WithRanges({{0, 1001}, {0, -1}})),
               std::invalid_argument);
}

// --- merger rejection catalogue -------------------------------------------

void ExpectAddRejects(ShardMerger& merger, ShardResult result,
                      const std::string& needle) {
  try {
    merger.Add(std::move(result), "doctored");
    FAIL() << "expected rejection mentioning \"" << needle << "\"";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(ShardRangeTest, MergerRejectsOverlappingFragments) {
  ShardMerger merger;
  merger.Add(RunShard(Slice({{0, {0, 512}}, {1, {0, -1}}})), "a");
  ExpectAddRejects(merger, RunShard(Slice({{0, {256, 1000}}})), "overlap");
}

TEST(ShardRangeTest, MergerRejectsUnalignedFragmentSeams) {
  // [0,300)+[300,1000) is a valid tiling of trials but its interior seam is
  // not block-aligned, so the shipped blocks cannot reproduce the canonical
  // partition; the merger must refuse rather than fold approximately.
  ShardMerger merger;
  ExpectAddRejects(merger, RunShard(Slice({{0, {0, 300}}})), "aligned");
}

TEST(ShardRangeTest, MergerRejectsWholeCellAfterFragments) {
  ShardMerger merger;
  merger.Add(RunShard(Slice({{0, {0, 512}}, {1, {0, 512}}})), "fragments");
  ExpectAddRejects(merger, RunShard(BaseShard()), "whole");
}

TEST(ShardRangeTest, MergerRejectsFragmentAfterWholeCell) {
  ShardMerger merger;
  merger.Add(RunShard(BaseShard()), "whole");
  ExpectAddRejects(merger, RunShard(Slice({{0, {512, 1000}}})), "whole");
}

TEST(ShardRangeTest, MergerRejectsWrongBlockCount) {
  ShardMerger merger;
  ShardResult doctored = RunShard(Slice({{0, {0, 512}}}));
  ASSERT_EQ(doctored.fragments.size(), 1u);
  doctored.fragments[0].blocks.pop_back();
  ExpectAddRejects(merger, std::move(doctored), "block");
}

TEST(ShardRangeTest, MergerRejectsInconsistentCellTrials) {
  // First fragment claims the cell is 1024 trials; the genuine second
  // fragment says 1000. The merger must refuse to mix them.
  ShardMerger merger;
  ShardResult doctored = RunShard(Slice({{0, {0, 512}}}));
  ASSERT_EQ(doctored.fragments.size(), 1u);
  doctored.fragments[0].cell_trials = 1024;
  merger.Add(std::move(doctored), "a");
  ExpectAddRejects(merger, RunShard(Slice({{0, {512, 1000}}})),
                   "total trial count");
}

}  // namespace
}  // namespace longstore
