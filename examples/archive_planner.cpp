// Archive planner: the §4.3 budget question made executable.
//
// "Most of the information people would like to see live forever is not in
// the hands of organizations with unlimited budgets." Given an archive size,
// a mission length, and a reliability target, the planner searches drive
// class x replication x audit frequency x deployment style as a frontier
// space with homogeneous fleets and no migration — so the exact CTMC scores
// every design — and reports the cheapest qualifying design plus the
// cost/reliability Pareto frontier.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/frontier/frontier.h"
#include "src/scenario/scenario_ctmc.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace longstore;

  FrontierSpace space;
  space.archive_gb = argc > 1 ? std::atof(argv[1]) : 2000.0;
  space.audit_choices = {0.0, 1.0, 3.0, 12.0, 52.0};
  space.deployment_choices = {DeploymentStyle::kSingleSite,
                              DeploymentStyle::kGeoReplicatedSameAdmin,
                              DeploymentStyle::kFullyDiverse};
  FrontierTarget target;
  target.mission = Duration::Years(argc > 2 ? std::atof(argv[2]) : 50.0);
  target.target_loss_probability = argc > 3 ? std::atof(argv[3]) : 0.01;

  std::printf("Planning a %.0f GB archive for %.0f years, target P(loss) <= %s\n\n",
              space.archive_gb, target.mission.years(),
              Table::FmtPercent(target.target_loss_probability).c_str());

  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FrontierOptions{}, &backend);
  const FrontierResult result = RunFrontierSearch(target, space, evaluator);
  std::printf("evaluated %zu strategy combinations, %lld by the exact CTMC\n\n",
              result.points.size(),
              static_cast<long long>(evaluator.stats().ctmc_evals));

  // A design's single phase, rebuilt for the details the frontier JSON
  // does not carry: the exact MTTDL.
  const auto mttdl = [&](const FrontierPoint& point) {
    return ScenarioCtmcMttdl(PhaseScenario(point.candidate.phases[0],
                                           point.candidate.deployment, space))
        .value_or(Duration::Infinite());
  };

  // Points are sorted by annual cost: the first qualifying one is cheapest.
  const auto best =
      std::find_if(result.points.begin(), result.points.end(),
                   [](const FrontierPoint& point) { return point.meets_target; });
  if (best != result.points.end()) {
    const FrontierPhase& phase = best->candidate.phases[0];
    const FaultParams params =
        DeriveParams(phase.drives[0], static_cast<int>(phase.drives.size()),
                     phase.audits_per_year, best->candidate.deployment, space);
    std::printf("cheapest design meeting the target:\n  %s\n"
                "  annual cost $%.0f, MTTDL %s, P(loss over mission) %s\n"
                "  derived per-replica params: MV=%s ML=%s MRV=%s MDL=%s alpha=%.3g\n\n",
                best->candidate.Describe().c_str(), best->annual_cost_usd,
                mttdl(*best).ToString().c_str(),
                Table::FmtSci(best->loss_probability, 2).c_str(),
                params.mv.ToString().c_str(), params.ml.ToString().c_str(),
                params.mrv.ToString().c_str(), params.mdl.ToString().c_str(),
                params.alpha);
  } else {
    std::printf("no design in the search space meets the target — relax the target\n"
                "or extend the FrontierSpace choice lists.\n\n");
  }

  std::printf("cost/reliability Pareto frontier:\n");
  Table frontier({"annual cost", "P(loss over mission)", "MTTDL", "design"});
  for (const FrontierPoint& point : result.points) {
    if (!point.on_frontier) {
      continue;
    }
    const Duration point_mttdl = mttdl(point);
    frontier.AddRow({"$" + Table::Fmt(point.annual_cost_usd, 4),
                     Table::FmtSci(point.loss_probability, 2),
                     point_mttdl.is_infinite()
                         ? "inf"
                         : Table::FmtYears(point_mttdl.years(), 0),
                     point.candidate.Describe()});
  }
  std::printf("%s", frontier.Render().c_str());

  std::printf("\nReading the frontier: audits and independence dominate the early\n"
              "wins (they are nearly free); replicas buy the later decades; the\n"
              "enterprise drive rarely appears — §6.1's conclusion, discovered\n"
              "here by exhaustive search rather than argument.\n");
  return 0;
}
