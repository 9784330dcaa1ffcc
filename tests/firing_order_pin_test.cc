// Pins the storage model's exact event firing order. Each config runs 64
// trials on one reused engine with a TraceRecorder attached; the record
// count and the FNV-1a hash of every record's (time bits, kind, replica)
// must match the values below, which were computed on the heap-based
// engine this source table replaced. The configs cover every event source
// the model arms and the equal-time tie-break: a change to the engine or
// to the model's scheduling that moves one event, or swaps two at the
// same time, moves the hash.

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "src/model/fault_params.h"
#include "src/model/strategies.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/storage/replicated_system.h"
#include "src/util/random.h"

namespace longstore {
namespace {

constexpr int kTrials = 64;

void HashBytes(uint64_t& hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
}

struct FiringOrder {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  size_t records = 0;
};

// Runs kTrials trials of `config` (trial t seeded DeriveSeed(17, t)) and
// hashes every recorded event in firing order.
FiringOrder RecordFiringOrder(const StorageSimConfig& config, Duration horizon) {
  Simulator sim;
  Rng rng(0);
  TraceRecorder trace;
  ReplicatedStorageSystem system(&sim, &rng, config, &trace);
  FiringOrder order;
  for (int t = 0; t < kTrials; ++t) {
    sim.Reset();
    rng.Reseed(DeriveSeed(17, static_cast<uint64_t>(t)));
    system.Reset();
    trace.Clear();
    system.Start();
    sim.RunUntil(horizon);
    for (const TraceEvent& event : trace.events()) {
      const double hours = event.time.hours();
      uint64_t time_bits;
      std::memcpy(&time_bits, &hours, sizeof(time_bits));
      const int32_t kind = static_cast<int32_t>(event.kind);
      const int32_t replica = event.replica;
      HashBytes(order.hash, &time_bits, sizeof(time_bits));
      HashBytes(order.hash, &kind, sizeof(kind));
      HashBytes(order.hash, &replica, sizeof(replica));
    }
    order.records += trace.events().size();
  }
  return order;
}

FaultParams BusyParams() {
  FaultParams p;
  p.mv = Duration::Hours(1000.0);
  p.ml = Duration::Hours(500.0);
  p.mrv = Duration::Hours(20.0);
  p.mrl = Duration::Hours(20.0);
  return p;
}

// §5.4's scrubbed Cheetah cell, as the paper figures run it.
StorageSimConfig ScrubbedCheetah() {
  StorageSimConfig config;
  config.replica_count = 2;
  config.params = ApplyScrubPolicy(FaultParams::PaperCheetahExample(),
                                   ScrubPolicy::PeriodicPerYear(3.0));
  config.scrub = ScrubPolicy::Exponential(config.params.mdl);
  return config;
}

TEST(FiringOrderPinTest, PaperConventionSerialRepair) {
  StorageSimConfig config;
  config.replica_count = 3;
  config.convention = RateConvention::kPaper;
  config.params = BusyParams();
  config.scrub = ScrubPolicy::Exponential(Duration::Hours(60.0));
  const FiringOrder order = RecordFiringOrder(config, Duration::Years(200.0));
  EXPECT_EQ(order.records, 14774u);
  EXPECT_EQ(order.hash, 0x65d4229ee7cf1752ULL);
}

TEST(FiringOrderPinTest, ScrubbedCheetahCell) {
  const FiringOrder order = RecordFiringOrder(ScrubbedCheetah(), Duration::Years(1e9));
  EXPECT_EQ(order.records, 45088u);
  EXPECT_EQ(order.hash, 0x45093a7532e2c6f7ULL);
}

TEST(FiringOrderPinTest, CorrelatedAlphaTenth) {
  StorageSimConfig config = ScrubbedCheetah();
  config.params = WithCorrelation(config.params, 0.1);
  const FiringOrder order = RecordFiringOrder(config, Duration::Years(1e9));
  EXPECT_EQ(order.records, 5083u);
  EXPECT_EQ(order.hash, 0x071e4ee2a5739136ULL);
}

// Unstaggered phases put every replica's scrub tick at the same time, so
// the equal-time tie-break alone decides their order.
TEST(FiringOrderPinTest, AlignedPeriodicScrubPasses) {
  StorageSimConfig config;
  config.replica_count = 3;
  config.params = BusyParams();
  config.scrub = ScrubPolicy::Periodic(Duration::Hours(100.0));
  config.scrub_staggered = false;
  config.record_scrub_passes = true;
  const FiringOrder order = RecordFiringOrder(config, Duration::Years(2.0));
  EXPECT_EQ(order.records, 22582u);
  EXPECT_EQ(order.hash, 0x0e47f01ae8447025ULL);
}

TEST(FiringOrderPinTest, AgedWeibullSurfacingLatent) {
  StorageSimConfig config;
  config.replica_count = 3;
  config.params = BusyParams();
  config.fault_distribution = StorageSimConfig::FaultDistribution::kWeibull;
  config.weibull_shape = 1.5;
  config.initial_age_hours = {0.0, 500.0, 2000.0};
  config.visible_fault_surfaces_latent = true;
  config.scrub = ScrubPolicy::Periodic(Duration::Hours(300.0));
  const FiringOrder order = RecordFiringOrder(config, Duration::Years(20.0));
  EXPECT_EQ(order.records, 5561u);
  EXPECT_EQ(order.hash, 0xcb12144cdc08144eULL);
}

TEST(FiringOrderPinTest, CommonModeSource) {
  StorageSimConfig config;
  config.replica_count = 3;
  config.params = BusyParams();
  config.params.mv = Duration::Hours(5000.0);
  config.params.ml = Duration::Hours(3000.0);
  config.scrub = ScrubPolicy::Periodic(Duration::Hours(200.0));
  config.common_mode.push_back(
      CommonModeSource{"rack", Rate::PerHour(1.0 / 2000.0), {0, 1, 2}, 0.5, 0.5});
  const FiringOrder order = RecordFiringOrder(config, Duration::Years(20.0));
  EXPECT_EQ(order.records, 6882u);
  EXPECT_EQ(order.hash, 0x5825cf2b266a3861ULL);
}

}  // namespace
}  // namespace longstore
