// frontier_small: repeated cold golden-small frontier searches on the
// in-process pool backend, closed loop. Each search gets a fresh evaluator
// (no memo), so every search pays its CTMC screens and its simulated
// candidate sweeps again. Search i uses seed VariantSeed(--seed, i % 2).
//
// A benchmark-side FrontierEvalBackend wraps PoolEvalBackend and times each
// Evaluate call, which splits a search into backend evaluations and the
// search's own self time. Checks: every repeat of a variant returns the
// bytes of its first search; the seed-33 search matches the bytes
// tests/frontier_golden_test.cc pins. The seed self-test compares the sweep
// documents the searches actually send.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/frontier/eval_backend.h"
#include "src/frontier/frontier.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

using namespace longstore;

constexpr int kVariants = 2;
// Documents kept from the timed searches for the layer probes.
constexpr size_t kProbeDocuments = 8;

FrontierOptions SearchOptions(uint64_t seed, int variant) {
  FrontierOptions options = GoldenSmallOptions();
  options.seed = VariantSeed(seed, variant);
  return options;
}

// Times each backend evaluation and keeps the first `capture` documents, so
// the layer probes and the seed self-test see exactly the bytes the search
// produced.
class TimedBackend : public FrontierEvalBackend {
 public:
  TimedBackend(WorkerPool* pool, Tracer& tracer, size_t capture)
      : inner_(pool), tracer_(tracer), capture_(capture) {}

  Eval Evaluate(const std::string& sweep_document) override {
    ScopedSpan span(tracer_, "frontier.eval");
    const int64_t start = NowNs();
    Eval eval = inner_.Evaluate(sweep_document);
    const int64_t elapsed = NowNs() - start;
    eval_ns_ += elapsed;
    if (tracer_.enabled()) {
      eval_ms_.push_back(static_cast<double>(elapsed) / 1e6);
    }
    if (documents_.size() < capture_) {
      documents_.push_back(sweep_document);
    }
    return eval;
  }

  int64_t eval_ns() const { return eval_ns_; }
  const std::vector<double>& eval_ms() const { return eval_ms_; }
  const std::vector<std::string>& documents() const { return documents_; }

 private:
  PoolEvalBackend inner_;
  Tracer& tracer_;
  size_t capture_;
  int64_t eval_ns_ = 0;
  std::vector<double> eval_ms_;
  std::vector<std::string> documents_;
};

class FrontierSmall : public Workload {
 public:
  explicit FrontierSmall(Context& ctx)
      : ctx_(ctx), target_(GoldenSmallTarget()), space_(GoldenSmallSpace()) {}

  void Setup() override {
    pool_ = std::make_unique<WorkerPool>(ctx_.nproc);
    backend_ = std::make_unique<TimedBackend>(pool_.get(), ctx_.tracer, kProbeDocuments);
    options_.clear();
    for (int k = 0; k < kVariants; ++k) {
      options_.push_back(SearchOptions(ctx_.seed, k));
    }
    // Warm-up: one full search outside the timed backend.
    PoolEvalBackend warm(pool_.get());
    FrontierEvaluator evaluator(options_[0], &warm);
    (void)RunFrontierSearch(target_, space_, evaluator);
    first_bytes_.assign(kVariants, "");
    ops_ = candidates_ = ctmc_ = simulated_ = trials_ = 0;
    search_ns_ = 0;
  }

  void Teardown() override {
    backend_.reset();
    pool_.reset();
  }

  void EndOfOps() override {
    const obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
    const auto it = snapshot.histograms.find("sweep.cell_wall_ns");
    cell_wall_ = it != snapshot.histograms.end() ? it->second : obs::HistogramState{};
    eval_ns_ = backend_->eval_ns();
    eval_ms_ = backend_->eval_ms();
    documents_ = backend_->documents();
  }

  OpOutcome RunOp(int64_t index) override {
    const int k = static_cast<int>(index % kVariants);
    FrontierEvaluator evaluator(options_[k], backend_.get());
    FrontierResult result;
    {
      ScopedSpan span(ctx_.tracer, "frontier.search");
      const int64_t start = NowNs();
      result = RunFrontierSearch(target_, space_, evaluator);
      search_ns_ += NowNs() - start;
    }
    std::string bytes;
    {
      ScopedSpan span(ctx_.tracer, "frontier.result_json");
      bytes = result.ToJson();
    }
    if (first_bytes_[k].empty()) {
      first_bytes_[k] = bytes;
    } else {
      ctx_.checker.Expect(bytes == first_bytes_[k],
                          "frontier_small: variant " + std::to_string(k) +
                              " repeat returned different bytes");
    }
    const FrontierEvaluator::Stats& stats = evaluator.stats();
    ++ops_;
    candidates_ += static_cast<int64_t>(result.points.size());
    ctmc_ += stats.ctmc_evals;
    simulated_ += stats.simulated_evals;
    trials_ += stats.simulated_trials;
    OpOutcome outcome;
    outcome.new_trials = stats.simulated_trials;
    return outcome;
  }

  void VerifyAfter() override {
    if (SkipExactGoldens()) {
      return;
    }
    std::string golden = ctx_.seed == kGoldenSeed ? first_bytes_[0] : "";
    if (golden.empty()) {
      PoolEvalBackend backend(pool_.get());
      FrontierEvaluator evaluator(SearchOptions(kGoldenSeed, 0), &backend);
      golden = RunFrontierSearch(target_, space_, evaluator).ToJson();
    }
    CheckGolden(ctx_.checker, "frontier_small: golden-small frontier", golden,
                kFrontierGoldenFnv);
  }

  std::vector<std::string> InputDocuments(uint64_t seed) const override {
    // The search's inputs: every sweep document (with its sweep_id) that one
    // search per variant sends to its backend.
    WorkerPool pool(ctx_.nproc);
    Tracer untraced;
    std::vector<std::string> docs;
    for (int k = 0; k < kVariants; ++k) {
      TimedBackend backend(&pool, untraced, SIZE_MAX);
      FrontierEvaluator evaluator(SearchOptions(seed, k), &backend);
      (void)RunFrontierSearch(target_, space_, evaluator);
      docs.insert(docs.end(), backend.documents().begin(), backend.documents().end());
    }
    return docs;
  }

  std::vector<std::string> SweepDocuments() const override { return documents_; }

  int64_t OpsPerBlock() const override { return 3 * kVariants; }
  int64_t TracedOps() const override { return 40; }

  Counts PassCounts() const override {
    return {{"frontier.searches", ops_},
            {"frontier.candidates", candidates_},
            {"frontier.ctmc_screened", ctmc_},
            {"frontier.evals_simulated", simulated_},
            {"frontier.simulated_trials", trials_}};
  }

  void LayerMetrics(MetricMap* out) const override {
    const double ops = static_cast<double>(std::max<int64_t>(ops_, 1));
    (*out)["frontier.candidates"] = {candidates_ / ops, "count"};
    (*out)["frontier.ctmc_screened"] = {ctmc_ / ops, "count"};
    (*out)["frontier.evals_simulated"] = {simulated_ / ops, "count"};
    (*out)["frontier.eval_ms_p50"] = {Median(eval_ms_), "ms"};
    (*out)["frontier.self_ms"] = {
        static_cast<double>(search_ns_ - eval_ns_) / 1e6 / ops, "ms"};
    if (cell_wall_.count > 0) {
      (*out)["sweep.cell_busy_ms"] = {
          static_cast<double>(cell_wall_.sum) / cell_wall_.count / 1e6, "ms"};
      (*out)["sweep.lane_busy_share"] = {
          static_cast<double>(cell_wall_.sum) /
              (static_cast<double>(eval_ns_) * ctx_.nproc),
          "ratio"};
    }
  }

  double PeakRssMb() const override { return SelfPeakRssMb(); }

 private:
  Context& ctx_;
  const FrontierTarget target_;
  const FrontierSpace space_;
  std::vector<FrontierOptions> options_;
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<TimedBackend> backend_;
  std::vector<std::string> first_bytes_;
  int64_t ops_ = 0;
  int64_t candidates_ = 0;
  int64_t ctmc_ = 0;
  int64_t simulated_ = 0;
  int64_t trials_ = 0;
  int64_t search_ns_ = 0;
  int64_t eval_ns_ = 0;
  std::vector<double> eval_ms_;
  std::vector<std::string> documents_;
  obs::HistogramState cell_wall_;
};

}  // namespace

std::unique_ptr<Workload> MakeFrontierSmall(Context& ctx) {
  return std::make_unique<FrontierSmall>(ctx);
}

}  // namespace perfbench
