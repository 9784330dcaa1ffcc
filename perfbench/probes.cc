// Generic per-layer probes: each layer timed from outside through its
// public functions, on the workload's own sweep documents.
//
//   storage.*  TrialRunner::Run / RunCounter over a seeded sample of the
//              documents' trials (single thread), and
//              TrialRunner::PrefilterCensoredBlock on the same cells
//   util.*     Rng::NextExponential, CounterMix, json::Parse
//   shard.*    ShardSpec::ToJson / FromJson, ShardResult::FromJson,
//              ShardMerger
//   sweep.*    FinalizeSweepCells, SweepResult::ToJson
//
// Every timing is the median of kRepeats repetitions; every count is exact
// for a given seed and document set.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/shard/shard.h"
#include "src/storage/replicated_system.h"
#include "src/util/json.h"
#include "src/util/random.h"

namespace perfbench {
namespace {

using namespace longstore;

constexpr int kRepeats = 5;
// Sampled trials per cell, and cells sampled in total (the first ones of
// the document list).
constexpr int kSampleTrialsPerCell = 96;
constexpr size_t kMaxSampledCells = 12;
constexpr int kPrefilterBlocksPerCell = 16;
constexpr int kRngDraws = 1 << 20;

template <typename Fn>
double MedianNs(Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    const int64_t start = NowNs();
    fn();
    samples.push_back(static_cast<double>(NowNs() - start));
  }
  return Median(samples);
}

int64_t EventCount(const SimMetrics& m) {
  return m.visible_faults + m.latent_faults + m.latent_detections +
         m.repairs_completed + m.common_mode_events;
}

std::unique_ptr<TrialRunner> MakeRunner(const Scenario& scenario,
                                        const SweepOptions& options) {
  if (options.estimand == SweepOptions::Estimand::kWeightedLossProbability) {
    return std::make_unique<TrialRunner>(scenario, ConfigValidation::kValidate,
                                         options.bias);
  }
  return std::make_unique<TrialRunner>(scenario);
}

void ProbeStorage(const std::vector<ShardSpec>& specs, uint64_t seed,
                  MetricMap* out, Counts* counts) {
  int64_t trials = 0;
  int64_t events = 0;
  int64_t eventless = 0;
  int64_t trial_ns = 0;
  int64_t blocks = 0;
  int64_t skipped = 0;
  int64_t prefilter_ns = 0;
  size_t cells_sampled = 0;
  uint8_t skip[kTrialPrefilterMaxBlock];
  for (const ShardSpec& spec : specs) {
    const SweepOptions& options = spec.options;
    const Duration horizon = TrialHorizon(options);
    const bool counter = options.seed_mode == SweepOptions::SeedMode::kCounterV1;
    SweepOptions counter_options = options;
    counter_options.seed_mode = SweepOptions::SeedMode::kCounterV1;
    const uint64_t cell_trials =
        static_cast<uint64_t>(std::max<int64_t>(options.mc.trials, 1));
    for (const SweepSpec::Cell& cell : spec.cells) {
      if (cells_sampled++ >= kMaxSampledCells) {
        break;
      }
      const std::unique_ptr<TrialRunner> runner = MakeRunner(cell.scenario, options);
      const uint64_t cell_seed = SweepCellSeed(options, cell);
      const uint64_t sample_root = DeriveSeed(seed, cell_seed);
      const int64_t start = NowNs();
      for (int j = 0; j < kSampleTrialsPerCell; ++j) {
        const uint64_t t = DeriveSeed(sample_root, static_cast<uint64_t>(j)) % cell_trials;
        const RunOutcome outcome =
            counter ? runner->RunCounter(cell_seed, t, horizon)
                    : runner->Run(DeriveSeed(cell_seed, t), horizon);
        const int64_t n = EventCount(outcome.metrics);
        events += n;
        eventless += n == 0 ? 1 : 0;
      }
      trial_ns += NowNs() - start;
      trials += kSampleTrialsPerCell;

      // The batched kernel's prefilter on this cell, keyed as kCounterV1
      // would key it. It declines (returns false) when it cannot apply:
      // an attached sampler, or no finite horizon to censor at.
      const uint64_t key = SweepCellSeed(counter_options, cell);
      const uint64_t block_slots =
          std::max<uint64_t>(cell_trials / kTrialPrefilterMaxBlock, 1);
      const int64_t pstart = NowNs();
      for (int b = 0; b < kPrefilterBlocksPerCell; ++b) {
        const int64_t begin = static_cast<int64_t>(
            (DeriveSeed(sample_root, 1000u + static_cast<uint64_t>(b)) % block_slots) *
            kTrialPrefilterMaxBlock);
        if (runner->PrefilterCensoredBlock(key, begin, kTrialPrefilterMaxBlock,
                                           horizon, skip)) {
          for (int i = 0; i < kTrialPrefilterMaxBlock; ++i) {
            skipped += skip[i] != 0 ? 1 : 0;
          }
        }
      }
      prefilter_ns += NowNs() - pstart;
      blocks += kPrefilterBlocksPerCell;
    }
  }
  if (trials == 0) {
    return;
  }
  (*out)["storage.trial_ns"] = {static_cast<double>(trial_ns) / trials, "ns"};
  (*out)["storage.events_per_trial"] = {static_cast<double>(events) / trials, "count"};
  (*out)["storage.eventless_share"] = {static_cast<double>(eventless) / trials, "ratio"};
  (*out)["storage.prefilter_ns_per_block"] = {
      static_cast<double>(prefilter_ns) / blocks, "ns"};
  (*out)["storage.prefilter_skip_share"] = {
      static_cast<double>(skipped) / (blocks * kTrialPrefilterMaxBlock), "ratio"};
  (*counts)["storage.sampled_trials"] = trials;
  (*counts)["storage.events"] = events;
  (*counts)["storage.eventless_trials"] = eventless;
  (*counts)["storage.prefilter_skipped"] = skipped;
}

void ProbeUtil(uint64_t seed, MetricMap* out) {
  volatile double sink = 0.0;
  const double rng_ns = MedianNs([&] {
    Rng rng(seed);
    double sum = 0.0;
    for (int i = 0; i < kRngDraws; ++i) {
      sum += rng.NextExponential(Duration::Hours(1.0e4)).hours();
    }
    sink = sink + sum;
  });
  volatile uint64_t mix_sink = 0;
  const double mix_ns = MedianNs([&] {
    uint64_t acc = 0;
    for (int i = 0; i < kRngDraws; ++i) {
      acc ^= CounterMix(seed, 7, static_cast<uint64_t>(i));
    }
    mix_sink = mix_sink ^ acc;
  });
  (*out)["util.rng_ns_per_draw"] = {rng_ns / kRngDraws, "ns"};
  (*out)["util.counter_mix_ns"] = {mix_ns / kRngDraws, "ns"};
}

}  // namespace

void ProbeLayers(const std::vector<std::string>& sweep_documents,
                 int shard_count, uint64_t seed, WorkerPool& pool,
                 MetricMap* out, Counts* counts) {
  if (sweep_documents.empty()) {
    return;
  }
  const double docs = static_cast<double>(sweep_documents.size());

  // Document layer: parse, decode, encode.
  size_t bytes = 0;
  for (const std::string& doc : sweep_documents) {
    bytes += doc.size();
  }
  const double parse_ns = MedianNs([&] {
    for (const std::string& doc : sweep_documents) {
      (void)json::Parse(doc, "perfbench");
    }
  });
  std::vector<ShardSpec> specs;
  const double decode_ns = MedianNs([&] {
    specs.clear();
    for (const std::string& doc : sweep_documents) {
      specs.push_back(ShardSpec::FromJson(doc, "perfbench"));
    }
  });
  const double encode_ns = MedianNs([&] {
    for (const ShardSpec& spec : specs) {
      (void)spec.ToJson();
    }
  });
  (*out)["util.json_parse_us"] = {parse_ns / docs / 1e3, "us"};
  (*out)["shard.spec_decode_us"] = {decode_ns / docs / 1e3, "us"};
  (*out)["shard.spec_encode_us"] = {encode_ns / docs / 1e3, "us"};
  (*out)["shard.doc_kb"] = {static_cast<double>(bytes) / docs / 1024.0, "KiB"};

  ProbeStorage(specs, seed, out, counts);
  ProbeUtil(seed, out);

  // Sweep finalization and result documents on the first document's cells,
  // executed once on the pool.
  const ShardSpec& spec = specs.front();
  const std::vector<SweepCellExecution> executions =
      RunSweepCells(pool, spec.cells, spec.options);
  SweepResult result;
  const double finalize_ns = MedianNs([&] {
    result = FinalizeSweepCells(executions, spec.axis_names, spec.options.estimand,
                                spec.options.mc.confidence);
  });
  std::string result_json;
  const double result_json_ns = MedianNs([&] { result_json = result.ToJson(); });
  (*out)["sweep.finalize_us"] = {finalize_ns / 1e3, "us"};
  (*out)["sweep.result_json_us"] = {result_json_ns / 1e3, "us"};

  // Shard results as the workload's transport would carry them: the plan's
  // partition of the same executions (RunShard computes exactly these per
  // shard), encoded, then decoded and merged back.
  const ShardPlan plan(spec.axis_names, spec.options, spec.cells, shard_count);
  std::vector<std::string> result_docs;
  for (const ShardSpec& shard : plan.shards()) {
    ShardResult shard_result;
    shard_result.shard_index = shard.shard_index;
    shard_result.shard_count = shard.shard_count;
    shard_result.total_cells = shard.total_cells;
    shard_result.sweep_id = shard.sweep_id;
    shard_result.estimand = shard.options.estimand;
    shard_result.confidence = shard.options.mc.confidence;
    shard_result.axis_names = shard.axis_names;
    for (const SweepSpec::Cell& cell : shard.cells) {
      shard_result.cells.push_back(executions[cell.index]);
    }
    result_docs.push_back(shard_result.ToJson());
  }
  std::vector<ShardResult> parsed;
  const double result_decode_ns = MedianNs([&] {
    parsed.clear();
    for (const std::string& doc : result_docs) {
      parsed.push_back(ShardResult::FromJson(doc, "perfbench"));
    }
  });
  SweepResult merged;
  const double merge_ns = MedianNs([&] {
    ShardMerger merger;
    for (const ShardResult& shard_result : parsed) {
      merger.Add(shard_result);
    }
    merged = merger.Finish();
  });
  if (merged.ToJson() != result_json) {
    throw std::runtime_error("shard probe: merged result differs from the direct finalize");
  }
  (*out)["shard.result_decode_us"] = {result_decode_ns / 1e3, "us"};
  (*out)["shard.merge_us"] = {merge_ns / 1e3, "us"};
}

}  // namespace perfbench
