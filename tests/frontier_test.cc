// The frontier's determinism contract and its agreement with the exact
// model. The byte-identity tests run the same search under different thread
// counts, evaluation backends, and space enumeration orders and demand the
// canonical JSON match to the byte — this is the contract the CI
// frontier-smoke job re-checks against a real resident daemon.

#include "src/frontier/frontier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/frontier/eval_backend.h"
#include "src/scenario/media.h"
#include "src/scenario/scenario_ctmc.h"
#include "src/service/sweep_service.h"
#include "src/shard/shard.h"
#include "src/sweep/worker_pool.h"
#include "src/util/json.h"

namespace longstore {
namespace {

// A fast search: two media, mixed fleets, one audit cadence. Small trial
// counts keep the whole file in unit-test time; determinism does not depend
// on trial volume.
FrontierSpace FastSpace() {
  FrontierSpace space;
  space.media = {SeagateBarracuda200Gb(), Lto3TapeCartridge()};
  space.replica_choices = {2, 3};
  space.audit_choices = {12.0};
  space.deployment_choices = {DeploymentStyle::kFullyDiverse};
  space.mixed_media = true;
  return space;
}

FrontierTarget FastTarget() {
  FrontierTarget target;
  target.mission = Duration::Years(50.0);
  target.target_loss_probability = 1e-4;
  return target;
}

FrontierOptions FastOptions() {
  FrontierOptions options;
  options.trials = 300;
  options.seed = 7;
  return options;
}

// Forwards to `inner` and records every document and its result bytes.
class RecordingBackend : public FrontierEvalBackend {
 public:
  explicit RecordingBackend(FrontierEvalBackend* inner) : inner_(inner) {}

  Eval Evaluate(const std::string& sweep_document) override {
    Eval eval = inner_->Evaluate(sweep_document);
    documents.push_back(ShardSpec::FromJson(sweep_document, "recorded document"));
    results.push_back(eval.result_json);
    return eval;
  }

  std::vector<ShardSpec> documents;
  std::vector<std::string> results;

 private:
  FrontierEvalBackend* inner_;
};

std::string SearchJson(const FrontierTarget& target, const FrontierSpace& space,
                       const FrontierOptions& options,
                       FrontierEvalBackend* backend) {
  FrontierEvaluator evaluator(options, backend);
  return RunFrontierSearch(target, space, evaluator).ToJson();
}

TEST(FrontierTest, ByteIdenticalAcrossThreadCounts) {
  WorkerPool one(1);
  WorkerPool four(4);
  PoolEvalBackend backend_one(&one);
  PoolEvalBackend backend_four(&four);
  const std::string a =
      SearchJson(FastTarget(), FastSpace(), FastOptions(), &backend_one);
  const std::string b =
      SearchJson(FastTarget(), FastSpace(), FastOptions(), &backend_four);
  EXPECT_EQ(a, b);
}

TEST(FrontierTest, ByteIdenticalAcrossPoolAndServiceBackends) {
  PoolEvalBackend pool_backend;
  SweepService service{ServiceOptions{}};
  ServiceEvalBackend service_backend(service);
  const std::string a =
      SearchJson(FastTarget(), FastSpace(), FastOptions(), &pool_backend);
  const std::string b =
      SearchJson(FastTarget(), FastSpace(), FastOptions(), &service_backend);
  EXPECT_EQ(a, b);

  // A repeated search against the same service answers from its result
  // cache — and still cannot move a byte.
  FrontierEvaluator cached(FastOptions(), &service_backend);
  const FrontierResult again =
      RunFrontierSearch(FastTarget(), FastSpace(), cached);
  EXPECT_EQ(again.ToJson(), b);
  EXPECT_GT(cached.stats().cache_served, 0);
  EXPECT_EQ(cached.stats().simulated_trials, 0);
}

TEST(FrontierTest, ByteIdenticalAcrossEnumerationOrder) {
  PoolEvalBackend backend;
  FrontierSpace forward = FastSpace();
  FrontierSpace reversed = FastSpace();
  std::reverse(reversed.media.begin(), reversed.media.end());
  std::reverse(reversed.replica_choices.begin(), reversed.replica_choices.end());
  const std::string a =
      SearchJson(FastTarget(), forward, FastOptions(), &backend);
  const std::string b =
      SearchJson(FastTarget(), reversed, FastOptions(), &backend);
  EXPECT_EQ(a, b);
}

TEST(FrontierTest, ForcedSimulationAgreesWithExactCtmcWithinCi) {
  // One CTMC-compatible candidate, force-simulated: the importance-sampled
  // estimate's CI must cover the exact chain's loss probability.
  FrontierSpace space = FastSpace();
  space.media = {SeagateBarracuda200Gb()};
  space.replica_choices = {2};
  space.mixed_media = false;
  FrontierOptions options = FastOptions();
  options.trials = 4000;
  options.force_simulation = true;

  PoolEvalBackend backend;
  FrontierEvaluator evaluator(options, &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), space, evaluator);
  ASSERT_EQ(result.points.size(), 1u);
  const FrontierPoint& point = result.points[0];
  EXPECT_EQ(point.method, "simulated");
  EXPECT_GT(point.trials, 0);

  const auto exact = ScenarioCtmcLossProbability(
      PhaseScenario(point.candidate.phases[0], point.candidate.deployment, space),
      FastTarget().mission);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(point.ci_lo, *exact);
  EXPECT_GE(point.ci_hi, *exact);
  // And the point estimate is in the right decade, not merely bracketed.
  EXPECT_GT(point.loss_probability, *exact * 0.3);
  EXPECT_LT(point.loss_probability, *exact * 3.0);
}

TEST(FrontierTest, CtmcScreenAndSimulationPartitionTheSearch) {
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), FastSpace(), evaluator);
  // 2 media x replicas {2,3} mixed: multisets of sizes 2 and 3 = 3 + 4 = 7.
  ASSERT_EQ(result.points.size(), 7u);
  int exact = 0;
  int simulated = 0;
  for (const FrontierPoint& point : result.points) {
    if (point.method == "ctmc") {
      ++exact;
      EXPECT_EQ(point.trials, 0);
      EXPECT_EQ(point.ci_lo, point.loss_probability);
      EXPECT_EQ(point.ci_hi, point.loss_probability);
    } else {
      EXPECT_EQ(point.method, "simulated");
      ++simulated;
      EXPECT_GT(point.trials, 0);
    }
  }
  // Homogeneous fleets (2 media x 2 sizes) screen exactly; mixed ones
  // simulate.
  EXPECT_EQ(exact, 4);
  EXPECT_EQ(simulated, 3);
  EXPECT_EQ(evaluator.stats().ctmc_evals, 4);
  EXPECT_EQ(evaluator.stats().simulated_evals, 3);
}

TEST(FrontierTest, PointsSortedByCostAndFrontierStrictlyImproves) {
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), FastSpace(), evaluator);
  double best_loss = 2.0;
  for (size_t i = 0; i < result.points.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(result.points[i].annual_cost_usd,
                result.points[i - 1].annual_cost_usd);
    }
    if (result.points[i].on_frontier) {
      EXPECT_LT(result.points[i].loss_probability, best_loss);
      best_loss = result.points[i].loss_probability;
    } else {
      EXPECT_GE(result.points[i].loss_probability, best_loss);
    }
  }
  EXPECT_TRUE(result.points.front().on_frontier);
}

TEST(FrontierTest, BudgetDiscardsCandidatesBeforeEvaluation) {
  PoolEvalBackend backend;
  FrontierEvaluator unconstrained(FastOptions(), &backend);
  const FrontierResult all =
      RunFrontierSearch(FastTarget(), FastSpace(), unconstrained);
  ASSERT_GT(all.points.size(), 2u);
  const double budget = all.points[all.points.size() / 2].annual_cost_usd;

  FrontierTarget capped = FastTarget();
  capped.max_annual_cost_usd = budget;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(capped, FastSpace(), evaluator);
  EXPECT_LT(result.points.size(), all.points.size());
  EXPECT_FALSE(result.points.empty());
  for (const FrontierPoint& point : result.points) {
    EXPECT_LE(point.annual_cost_usd, budget);
  }
}

TEST(FrontierTest, MigrationSchedulesComposeAcrossPhases) {
  FrontierSpace space = FastSpace();
  space.mixed_media = false;
  space.migration_years = {10.0};
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), space, evaluator);

  int schedules = 0;
  for (const FrontierPoint& point : result.points) {
    ASSERT_FALSE(point.candidate.phases.empty());
    if (point.candidate.phases.size() == 1) {
      continue;
    }
    ++schedules;
    ASSERT_EQ(point.candidate.phases.size(), 2u);
    EXPECT_DOUBLE_EQ(point.candidate.phases[0].years, 10.0);
    EXPECT_DOUBLE_EQ(point.candidate.phases[1].years, 40.0);
    EXPECT_NE(point.candidate.phases[0].drives[0].model,
              point.candidate.phases[1].drives[0].model);
    EXPECT_EQ(point.phase_costs.size(), 2u);
    EXPECT_GE(point.loss_probability, 0.0);
    EXPECT_LE(point.loss_probability, 1.0);
    // Disk <-> tape at 10 of 50 years: the schedule's cost is between the
    // two steady states' (time-weighted average).
    const double phase0 = point.phase_costs[0].total_per_year();
    const double phase1 = point.phase_costs[1].total_per_year();
    EXPECT_NEAR(point.annual_cost_usd, 0.2 * phase0 + 0.8 * phase1,
                1e-9 * point.annual_cost_usd);
  }
  // 2 media, ordered pairs with distinct models, 2 replica counts.
  EXPECT_EQ(schedules, 4);
}

TEST(FrontierTest, EvaluatorMemoServesRepeats) {
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  // Vaulted tape audited on a fixed period: outside the CTMC, so simulated.
  const Scenario scenario =
      ScenarioBuilder().Replicas(2, TapeSpec(Lto3TapeCartridge(), 4.0)).Build();
  ASSERT_TRUE(CtmcIncompatibility(scenario).has_value());

  const auto first = evaluator.EvaluateScenario(scenario, Duration::Years(50));
  const auto second = evaluator.EvaluateScenario(scenario, Duration::Years(50));
  EXPECT_EQ(first.source, "computed");
  EXPECT_EQ(second.source, "memo");
  EXPECT_EQ(second.probability, first.probability);
  EXPECT_EQ(evaluator.stats().memo_hits, 1);
  // A different mission is a different estimand — not a memo hit.
  const auto other = evaluator.EvaluateScenario(scenario, Duration::Years(20));
  EXPECT_EQ(other.source, "computed");
  EXPECT_EQ(evaluator.stats().memo_hits, 1);

  // Within one batch, a repeated request is simulated once; its second use
  // is a memo hit.
  FrontierEvaluator batch(FastOptions(), &backend);
  const std::vector<FrontierEvaluator::ScenarioEval> evals =
      batch.EvaluateScenarios(
          {{&scenario, Duration::Years(50)}, {&scenario, Duration::Years(50)}});
  EXPECT_EQ(evals[0].source, "computed");
  EXPECT_EQ(evals[1].source, "memo");
  EXPECT_EQ(evals[1].probability, first.probability);
  EXPECT_EQ(batch.stats().simulated_evals, 1);
  EXPECT_EQ(batch.stats().memo_hits, 1);
  EXPECT_EQ(batch.stats().backend_documents, 1);
}

// Mixed fleets (outside the CTMC) and a homogeneous one, as PhaseScenario
// builds them for a search.
std::vector<Scenario> WaveScenarios() {
  const FrontierSpace space = GoldenSmallSpace();
  const DriveSpec disk = SeagateBarracuda200Gb();
  const DriveSpec fast = SeagateCheetah146Gb();
  const DriveSpec tape = Lto3TapeCartridge();
  std::vector<Scenario> scenarios;
  for (std::vector<DriveSpec> drives :
       {std::vector<DriveSpec>{disk, fast}, std::vector<DriveSpec>{disk, tape},
        std::vector<DriveSpec>{fast, tape, tape},
        std::vector<DriveSpec>{disk, disk, fast, tape},
        std::vector<DriveSpec>{tape, tape}}) {
    FrontierPhase phase;
    phase.years = 50.0;
    phase.drives = std::move(drives);
    phase.audits_per_year = 12.0;
    scenarios.push_back(
        PhaseScenario(phase, DeploymentStyle::kFullyDiverse, space));
  }
  return scenarios;
}

// A wave cell's estimate is a function of its own scenario only: each cell of
// one multi-cell document has the bytes of that scenario's single-cell
// document, on every backend.
void ExpectWaveCellsMatchSingleCellDocuments(FrontierEvalBackend* backend) {
  const std::vector<Scenario> scenarios = WaveScenarios();
  FrontierOptions options = FastOptions();
  options.force_simulation = true;

  RecordingBackend wave_backend(backend);
  FrontierEvaluator wave(options, &wave_backend);
  std::vector<FrontierEvaluator::Request> requests;
  for (const Scenario& scenario : scenarios) {
    requests.push_back({&scenario, Duration::Years(50)});
  }
  const std::vector<FrontierEvaluator::ScenarioEval> wave_evals =
      wave.EvaluateScenarios(requests);
  ASSERT_EQ(wave_backend.documents.size(), 1u);
  ASSERT_EQ(wave_backend.documents[0].cells.size(), scenarios.size());

  RecordingBackend single_backend(backend);
  FrontierEvaluator single(options, &single_backend);
  std::string joined = "[";
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const FrontierEvaluator::ScenarioEval eval =
        single.EvaluateScenario(scenarios[i], Duration::Years(50));
    EXPECT_EQ(eval.probability, wave_evals[i].probability) << i;
    EXPECT_EQ(eval.ci_lo, wave_evals[i].ci_lo) << i;
    EXPECT_EQ(eval.ci_hi, wave_evals[i].ci_hi) << i;
    EXPECT_EQ(eval.trials, wave_evals[i].trials) << i;
    ASSERT_EQ(single_backend.documents.size(), i + 1);
    EXPECT_EQ(single_backend.documents[i].cells.size(), 1u);
    // A single-cell result is "[cell]"; the wave result is its cells joined.
    const std::string& cell = single_backend.results[i];
    joined += (i > 0 ? "," : "") + cell.substr(1, cell.size() - 2);
  }
  joined += "]";
  EXPECT_EQ(wave_backend.results[0], joined);
}

TEST(FrontierTest, WaveCellsMatchSingleCellDocumentsOnThePool) {
  WorkerPool pool(4);
  PoolEvalBackend backend(&pool);
  ExpectWaveCellsMatchSingleCellDocuments(&backend);
}

TEST(FrontierTest, WaveCellsMatchSingleCellDocumentsOnTheService) {
  SweepService service{ServiceOptions{}};
  ServiceEvalBackend backend(service);
  ExpectWaveCellsMatchSingleCellDocuments(&backend);
}

TEST(FrontierTest, GoldenSmallSimulatesInSixWaveDocuments) {
  PoolEvalBackend pool_backend;
  RecordingBackend backend(&pool_backend);
  FrontierEvaluator evaluator(GoldenSmallOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(GoldenSmallTarget(), GoldenSmallSpace(), evaluator);
  EXPECT_EQ(result.points.size(), 62u);
  // 44 simulated phases in waves of at most 8: ceil(44 / 8) = 6 documents.
  ASSERT_EQ(backend.documents.size(), 6u);
  size_t cells = 0;
  for (const ShardSpec& document : backend.documents) {
    EXPECT_LE(document.cells.size(), kFrontierWaveCells);
    cells += document.cells.size();
  }
  EXPECT_EQ(cells, 44u);
  const FrontierEvaluator::Stats& stats = evaluator.stats();
  EXPECT_EQ(stats.ctmc_evals, 18);
  EXPECT_EQ(stats.simulated_evals, 44);
  EXPECT_EQ(stats.memo_hits, 0);
  EXPECT_EQ(stats.backend_documents, 6);
  EXPECT_EQ(stats.simulated_trials, 44 * GoldenSmallOptions().trials);
}

TEST(FrontierTest, WavesGroupPhasesByMission) {
  // Force-simulated migration schedules: 4 steady fleets (50 y) plus 4 first
  // phases (10 y) and 4 second phases (40 y) — three missions, one document
  // each.
  FrontierSpace space = FastSpace();
  space.mixed_media = false;
  space.migration_years = {10.0};
  FrontierOptions options = FastOptions();
  options.force_simulation = true;
  PoolEvalBackend pool_backend;
  RecordingBackend backend(&pool_backend);
  FrontierEvaluator evaluator(options, &backend);
  (void)RunFrontierSearch(FastTarget(), space, evaluator);

  std::set<double> missions;
  size_t cells = 0;
  for (const ShardSpec& document : backend.documents) {
    missions.insert(document.options.mission.years());
    cells += document.cells.size();
  }
  EXPECT_EQ(backend.documents.size(), 3u);
  EXPECT_EQ(missions, (std::set<double>{10.0, 40.0, 50.0}));
  EXPECT_EQ(cells, 12u);
  EXPECT_EQ(evaluator.stats().simulated_evals, 12);
  // Every schedule reuses a steady fleet's scenario under another mission,
  // so nothing is a memo hit and nothing is simulated twice.
  EXPECT_EQ(evaluator.stats().memo_hits, 0);
}

TEST(FrontierTest, ServiceReSearchServesEveryWaveCellFromCache) {
  SweepService service{ServiceOptions{}};
  ServiceEvalBackend backend(service);
  FrontierEvaluator cold(GoldenSmallOptions(), &backend);
  const std::string cold_json =
      RunFrontierSearch(GoldenSmallTarget(), GoldenSmallSpace(), cold).ToJson();
  EXPECT_EQ(service.cache_size(), 6u);

  FrontierEvaluator warm(GoldenSmallOptions(), &backend);
  const std::string warm_json =
      RunFrontierSearch(GoldenSmallTarget(), GoldenSmallSpace(), warm).ToJson();
  EXPECT_EQ(warm_json, cold_json);
  EXPECT_EQ(warm.stats().simulated_evals, 44);
  EXPECT_EQ(warm.stats().cache_served, warm.stats().simulated_evals);
  EXPECT_EQ(warm.stats().simulated_trials, 0);
  EXPECT_EQ(warm.stats().backend_documents, 6);
}

TEST(FrontierTest, ResultJsonParsesAndMirrorsThePoints) {
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), FastSpace(), evaluator);
  const json::Value root = json::Parse(result.ToJson(), "frontier json");
  ASSERT_EQ(root.kind, json::Value::Kind::kObject);
  const json::Value* points = root.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array.size(), result.points.size());
  for (size_t i = 0; i < result.points.size(); ++i) {
    const json::Value* loss = points->array[i].Find("loss_probability");
    ASSERT_NE(loss, nullptr);
    EXPECT_EQ(loss->number, result.points[i].loss_probability);
  }
}

}  // namespace
}  // namespace longstore
