// archival_sweep: in-process SweepRunner::Run of an archival mission-loss
// grid in the default seed mode (kPerCellDerived), closed loop on a
// nproc-lane pool. Replicas {2,3,4} x latent MTBF {5e6, 2e7, 8e7} h, visible
// MTBF 5e7 h, 10 h repairs, exponential scrub every 2e6 h, 5-year mission:
// nearly every trial is eventless, so the cost is per-trial setup and the
// initial draws, not event processing.
//
// Operation i runs variant i % kVariants (mc.seed from --seed). Checks:
// every repeat of a variant returns the bytes of its first run; variant 0
// on a one-lane pool returns the same bytes (thread-count invariance); the
// seed-33 grid matches its pinned bytes.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/obs/metrics.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/json.h"

namespace perfbench {
namespace {

using namespace longstore;

constexpr int kVariants = 4;
constexpr int64_t kTrialsPerCell = 65536;

SweepSpec ArchivalGrid() {
  StorageSimConfig base;
  base.params.mv = Duration::Hours(5.0e7);
  base.params.mrv = Duration::Hours(10.0);
  base.params.mrl = Duration::Hours(10.0);
  base.scrub = ScrubPolicy::Exponential(Duration::Hours(2.0e6));
  SweepSpec spec(base);
  spec.AddAxis("replicas");
  for (const int replicas : {2, 3, 4}) {
    spec.AddPoint("r=" + std::to_string(replicas), replicas,
                  [replicas](StorageSimConfig& config) {
                    config.replica_count = replicas;
                  });
  }
  spec.AddAxis("latent_mtbf_h");
  for (const double ml : {5.0e6, 2.0e7, 8.0e7}) {
    spec.AddPoint("ml=" + Table::Fmt(ml, 0), ml, [ml](StorageSimConfig& config) {
      config.params.ml = Duration::Hours(ml);
    });
  }
  return spec;
}

SweepOptions ArchivalOptions(uint64_t seed, int variant) {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Years(5.0);
  options.mc.trials = kTrialsPerCell;
  options.mc.seed = VariantSeed(seed, variant);
  return options;
}

class ArchivalSweep : public Workload {
 public:
  explicit ArchivalSweep(Context& ctx) : ctx_(ctx), spec_(ArchivalGrid()) {}

  void Setup() override {
    pool_ = std::make_unique<WorkerPool>(ctx_.nproc);
    options_.clear();
    for (int k = 0; k < kVariants; ++k) {
      options_.push_back(ArchivalOptions(ctx_.seed, k));
    }
    // Warm-up: one full grid, so every lane and code path is hot.
    (void)SweepRunner(pool_.get()).Run(spec_, options_[0]);
    first_bytes_.assign(kVariants, "");
    ops_ = 0;
    trials_ = 0;
    losses_ = 0;
    run_ns_ = 0;
  }

  void Teardown() override { pool_.reset(); }

  void EndOfOps() override {
    const obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
    const auto it = snapshot.histograms.find("sweep.cell_wall_ns");
    cell_wall_ = it != snapshot.histograms.end() ? it->second : obs::HistogramState{};
  }

  OpOutcome RunOp(int64_t index) override {
    const int k = static_cast<int>(index % kVariants);
    SweepResult result;
    {
      ScopedSpan span(ctx_.tracer, "sweep.run");
      const int64_t start = NowNs();
      result = SweepRunner(pool_.get()).Run(spec_, options_[k]);
      run_ns_ += NowNs() - start;
    }
    std::string bytes;
    {
      ScopedSpan span(ctx_.tracer, "sweep.result_json");
      bytes = result.ToJson();
    }
    if (first_bytes_[k].empty()) {
      first_bytes_[k] = bytes;
    } else {
      ctx_.checker.Expect(bytes == first_bytes_[k],
                          "archival_sweep: variant " + std::to_string(k) +
                              " repeat returned different bytes");
    }
    OpOutcome outcome;
    for (const SweepCellResult& cell : result.cells) {
      outcome.new_trials += cell.trials;
      losses_ += cell.loss ? cell.loss->losses : 0;
    }
    ++ops_;
    trials_ += outcome.new_trials;
    return outcome;
  }

  void VerifyAfter() override {
    if (!first_bytes_[0].empty()) {
      WorkerPool one_lane(1);
      const std::string single =
          SweepRunner(&one_lane).Run(spec_, options_[0]).ToJson();
      ctx_.checker.Expect(single == first_bytes_[0],
                          "archival_sweep: one-lane run differs from the pool run");
    }
    if (SkipExactGoldens()) {
      return;
    }
    const std::string golden =
        ctx_.seed == kGoldenSeed && !first_bytes_[0].empty()
            ? first_bytes_[0]
            : SweepRunner(pool_.get()).Run(spec_, ArchivalOptions(kGoldenSeed, 0)).ToJson();
    CheckGolden(ctx_.checker, "archival_sweep: seed-33 grid", golden, kArchivalGoldenFnv);
  }

  std::vector<std::string> InputDocuments(uint64_t seed) const override {
    std::vector<std::string> docs;
    for (int k = 0; k < kVariants; ++k) {
      docs.push_back(ShardPlan(spec_, ArchivalOptions(seed, k), 1).shards()[0].ToJson());
    }
    return docs;
  }

  std::vector<std::string> SweepDocuments() const override {
    return {InputDocuments(ctx_.seed)[0]};
  }

  int64_t OpsPerBlock() const override { return 2 * kVariants; }
  int64_t TracedOps() const override { return 80; }

  Counts PassCounts() const override {
    return {{"archival.ops", ops_},
            {"archival.trials", trials_},
            {"archival.losses", losses_}};
  }

  void LayerMetrics(MetricMap* out) const override {
    if (cell_wall_.count > 0) {
      (*out)["sweep.cell_busy_ms"] = {
          static_cast<double>(cell_wall_.sum) / cell_wall_.count / 1e6, "ms"};
      (*out)["sweep.lane_busy_share"] = {
          static_cast<double>(cell_wall_.sum) /
              (static_cast<double>(run_ns_) * ctx_.nproc),
          "ratio"};
    }
  }

  double PeakRssMb() const override { return SelfPeakRssMb(); }

 private:
  Context& ctx_;
  const SweepSpec spec_;
  std::vector<SweepOptions> options_;
  std::unique_ptr<WorkerPool> pool_;
  std::vector<std::string> first_bytes_;
  int64_t ops_ = 0;
  int64_t trials_ = 0;
  int64_t losses_ = 0;
  int64_t run_ns_ = 0;
  obs::HistogramState cell_wall_;
};

}  // namespace

std::unique_ptr<Workload> MakeArchivalSweep(Context& ctx) {
  return std::make_unique<ArchivalSweep>(ctx);
}

}  // namespace perfbench
