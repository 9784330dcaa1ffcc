// fleet_cheetah: the §5.4 Cheetah figure (tools/figure_sweeps.h) through
// FleetSupervisor::Run over real sweep_worker processes, closed loop: 3
// shards, max_parallel 3, worker_threads 1, no fault injection. With the
// supervisor's thread that is nproc (4) threads at most.
//
// Operation i runs variant i % kVariants (mc.seed from --seed; variant 0 of
// seed 33 is the golden figure itself). Checks: every merged figure equals
// the single-process SweepRunner run of the same variant (computed outside
// the timed phase), every run is complete, and the golden figure matches
// its pinned bytes.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/fleet/fleet.h"
#include "src/obs/trace.h"
#include "src/shard/shard.h"
#include "src/util/json.h"
#include "tools/figure_sweeps.h"

namespace perfbench {
namespace {

using namespace longstore;

constexpr int kVariants = 3;
constexpr int kShards = 3;

SweepOptions CheetahOptions(uint64_t seed, int variant) {
  SweepSpec unused;
  SweepOptions options;
  BuildCheetahSweep(&unused, &options);
  options.mc.seed = VariantSeed(seed, variant);
  return options;
}

SweepSpec CheetahSpec() {
  SweepSpec spec;
  SweepOptions unused;
  BuildCheetahSweep(&spec, &unused);
  return spec;
}

class FleetCheetah : public Workload {
 public:
  explicit FleetCheetah(Context& ctx) : ctx_(ctx), spec_(CheetahSpec()) {}

  void Setup() override {
    dir_ = ctx_.work_dir + "/fleet";
    std::filesystem::create_directories(dir_);
    fleet_options_ = FleetOptions{};
    fleet_options_.worker_path = PERFBENCH_SWEEP_WORKER;
    fleet_options_.temp_dir = dir_;
    fleet_options_.shard_count = kShards;
    fleet_options_.max_parallel = kShards;
    fleet_options_.worker_threads = 1;
    fleet_options_.timeout_seconds = 60.0;
    options_.clear();
    for (int k = 0; k < kVariants; ++k) {
      options_.push_back(CheetahOptions(ctx_.seed, k));
    }
    // Warm-up: one full fleet run pages the worker binary in.
    (void)FleetSupervisor(fleet_options_).Run(spec_, options_[0]);
    first_bytes_.assign(kVariants, "");
    ops_ = attempts_ = retries_ = 0;
    attempt_ms_.clear();
    overhead_ms_.clear();
    cell_wall_ = obs::HistogramState{};
    run_ns_ = 0;
  }

  void Teardown() override {}

  OpOutcome RunOp(int64_t index) override {
    const int k = static_cast<int>(index % kVariants);
    FleetOptions fleet_options = fleet_options_;
    obs::TraceJournal journal;
    const std::string journal_path = dir_ + "/op.trace.jsonl";
    if (ctx_.tracer.enabled()) {
      journal.Open(journal_path);
      fleet_options.journal = &journal;
    }
    FleetReport report;
    int64_t run_span = -1;
    {
      ScopedSpan span(ctx_.tracer, "fleet.run");
      run_span = span.id();
      const int64_t start = NowNs();
      report = FleetSupervisor(fleet_options).Run(spec_, options_[k]);
      const int64_t elapsed = NowNs() - start;
      run_ns_ += elapsed;
      if (ctx_.tracer.enabled()) {
        RecordAttempts(journal, journal_path, run_span, elapsed);
      }
    }
    std::string bytes;
    {
      ScopedSpan span(ctx_.tracer, "sweep.result_json");
      bytes = report.result.ToJson();
    }
    ctx_.checker.Expect(report.complete, "fleet_cheetah: incomplete fleet run");
    if (first_bytes_[k].empty()) {
      first_bytes_[k] = bytes;
    } else {
      ctx_.checker.Expect(bytes == first_bytes_[k],
                          "fleet_cheetah: variant " + std::to_string(k) +
                              " repeat returned different bytes");
    }
    ++ops_;
    attempts_ += report.stats.spawned;
    retries_ += report.stats.retries;
    const auto it = report.worker_metrics.histograms.find("sweep.cell_wall_ns");
    if (it != report.worker_metrics.histograms.end()) {
      cell_wall_.count += it->second.count;
      cell_wall_.sum += it->second.sum;
    }
    OpOutcome outcome;
    for (const SweepCellResult& cell : report.result.cells) {
      outcome.new_trials += cell.trials;
    }
    return outcome;
  }

  void VerifyAfter() override {
    for (int k = 0; k < kVariants; ++k) {
      if (first_bytes_[k].empty()) {
        continue;
      }
      const std::string single = SweepRunner().Run(spec_, options_[k]).ToJson();
      ctx_.checker.Expect(single == first_bytes_[k],
                          "fleet_cheetah: merged figure differs from the "
                          "single-process run (variant " + std::to_string(k) + ")");
    }
    if (SkipExactGoldens()) {
      return;
    }
    const std::string golden =
        ctx_.seed == kGoldenSeed && !first_bytes_[0].empty()
            ? first_bytes_[0]
            : SweepRunner().Run(spec_, CheetahOptions(kGoldenSeed, 0)).ToJson();
    CheckGolden(ctx_.checker, "fleet_cheetah: golden Cheetah figure", golden,
                kCheetahGoldenFnv);
  }

  std::vector<std::string> InputDocuments(uint64_t seed) const override {
    std::vector<std::string> docs;
    for (int k = 0; k < kVariants; ++k) {
      const ShardPlan plan(spec_, CheetahOptions(seed, k), kShards);
      for (const ShardSpec& shard : plan.shards()) {
        docs.push_back(shard.ToJson());
      }
    }
    return docs;
  }

  std::vector<std::string> SweepDocuments() const override {
    return {ShardPlan(spec_, CheetahOptions(ctx_.seed, 0), 1).shards()[0].ToJson()};
  }
  int ShardCount() const override { return kShards; }

  int64_t OpsPerBlock() const override { return 2 * kVariants; }
  int64_t TracedOps() const override { return 40; }

  Counts PassCounts() const override {
    return {{"fleet.runs", ops_}, {"fleet.attempts", attempts_},
            {"fleet.retries", retries_}};
  }

  void LayerMetrics(MetricMap* out) const override {
    const double ops = static_cast<double>(std::max<int64_t>(ops_, 1));
    (*out)["fleet.attempts"] = {attempts_ / ops, "count"};
    (*out)["fleet.retries"] = {retries_ / ops, "count"};
    (*out)["fleet.attempt_ms_p50"] = {Median(attempt_ms_), "ms"};
    (*out)["fleet.overhead_ms"] = {Median(overhead_ms_), "ms"};
    if (cell_wall_.count > 0) {
      (*out)["sweep.cell_busy_ms"] = {
          static_cast<double>(cell_wall_.sum) / cell_wall_.count / 1e6, "ms"};
      (*out)["sweep.lane_busy_share"] = {
          static_cast<double>(cell_wall_.sum) /
              (static_cast<double>(run_ns_) * kShards),
          "ratio"};
    }
  }

  // The workers do the work: the largest reaped worker's peak.
  double PeakRssMb() const override { return ChildrenPeakRssMb(); }

 private:
  // Recovers each attempt's span (spawn -> verified merge) from the fleet's
  // trace journal, which stamps the same monotonic clock.
  void RecordAttempts(obs::TraceJournal& journal, const std::string& path,
                      int64_t parent, int64_t run_ns) {
    journal.Flush();
    std::map<std::pair<int64_t, int64_t>, int64_t> spawned;
    int64_t slowest = 0;
    for (const JournalEvent& event : ReadJournal(path)) {
      const std::pair<int64_t, int64_t> key{
          static_cast<int64_t>(event.numbers.count("unit") ? event.numbers.at("unit") : -1),
          static_cast<int64_t>(event.numbers.count("attempt") ? event.numbers.at("attempt") : -1)};
      if (event.event == "unit_spawn") {
        spawned[key] = event.ts_ns;
      } else if (event.event == "unit_done" && spawned.count(key)) {
        const int64_t start = spawned[key];
        ctx_.tracer.Add("fleet.attempt", start, event.ts_ns, parent);
        attempt_ms_.push_back(static_cast<double>(event.ts_ns - start) / 1e6);
        slowest = std::max(slowest, event.ts_ns - start);
      }
    }
    overhead_ms_.push_back(static_cast<double>(run_ns - slowest) / 1e6);
  }

  Context& ctx_;
  const SweepSpec spec_;
  std::string dir_;
  FleetOptions fleet_options_;
  std::vector<SweepOptions> options_;
  std::vector<std::string> first_bytes_;
  int64_t ops_ = 0;
  int64_t attempts_ = 0;
  int64_t retries_ = 0;
  std::vector<double> attempt_ms_;
  std::vector<double> overhead_ms_;
  obs::HistogramState cell_wall_;
  int64_t run_ns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetCheetah(Context& ctx) {
  return std::make_unique<FleetCheetah>(ctx);
}

}  // namespace perfbench
