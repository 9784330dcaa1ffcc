// The §4.3 budget question as a frontier search: homogeneous fleets, no
// migration, every deployment style — a space the exact CTMC scores whole.

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/frontier/frontier.h"

namespace longstore {
namespace {

FrontierSpace SmallSpace() {
  FrontierSpace space;
  space.archive_gb = 1000.0;
  // Keep the search space small for unit-test speed.
  space.replica_choices = {2, 3};
  space.audit_choices = {0.0, 12.0};
  space.deployment_choices = {DeploymentStyle::kSingleSite,
                              DeploymentStyle::kGeoReplicatedSameAdmin,
                              DeploymentStyle::kFullyDiverse};
  return space;
}

FrontierTarget SmallTarget() {
  FrontierTarget target;
  target.mission = Duration::Years(50.0);
  target.target_loss_probability = 0.01;
  return target;
}

FrontierResult Search(const FrontierTarget& target, const FrontierSpace& space) {
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FrontierOptions{}, &backend);
  FrontierResult result = RunFrontierSearch(target, space, evaluator);
  // Homogeneous single-phase designs never need the simulator.
  EXPECT_EQ(evaluator.stats().simulated_evals, 0);
  return result;
}

// The one design Barracuda x`replicas`, `audits`/y, `deployment` in a
// search narrowed to exactly it.
FrontierPoint Barracuda(int replicas, double audits, DeploymentStyle deployment) {
  FrontierSpace space = SmallSpace();
  space.media = {SeagateBarracuda200Gb()};
  space.replica_choices = {replicas};
  space.audit_choices = {audits};
  space.deployment_choices = {deployment};
  const FrontierResult result = Search(SmallTarget(), space);
  EXPECT_EQ(result.points.size(), 1u);
  return result.points.at(0);
}

TEST(PlannerTest, DeriveParamsUsesDeploymentAlpha) {
  const FrontierSpace space = SmallSpace();
  const DriveSpec drive = SeagateBarracuda200Gb();
  const FaultParams diverse =
      DeriveParams(drive, 2, 12.0, DeploymentStyle::kFullyDiverse, space);
  EXPECT_DOUBLE_EQ(diverse.alpha, 1.0);
  const FaultParams single =
      DeriveParams(drive, 2, 12.0, DeploymentStyle::kSingleSite, space);
  EXPECT_LT(single.alpha, 0.05);
  const FaultParams geo =
      DeriveParams(drive, 2, 12.0, DeploymentStyle::kGeoReplicatedSameAdmin, space);
  EXPECT_GT(geo.alpha, single.alpha);
  EXPECT_LT(geo.alpha, 1.0);
}

TEST(PlannerTest, DeriveParamsForTapeUsesOfflineModel) {
  const FaultParams p = DeriveParams(Lto3TapeCartridge(), 2, 4.0,
                                     DeploymentStyle::kFullyDiverse, SmallSpace());
  // Off-line repair pays retrieval: MRV far above any disk rebuild.
  EXPECT_GT(p.mrv.hours(), 24.0);
  EXPECT_FALSE(p.Validate().has_value());
}

TEST(PlannerTest, MoreIndependenceNeverHurts) {
  const FrontierPoint single = Barracuda(2, 12.0, DeploymentStyle::kSingleSite);
  const FrontierPoint diverse = Barracuda(2, 12.0, DeploymentStyle::kFullyDiverse);
  EXPECT_LE(diverse.loss_probability, single.loss_probability);
  // §5.5's headline: the same hardware, differently deployed, is orders of
  // magnitude more reliable.
  EXPECT_LT(diverse.loss_probability, single.loss_probability / 10.0);
}

TEST(PlannerTest, AuditingImprovesReliability) {
  const FrontierPoint no_audit = Barracuda(2, 0.0, DeploymentStyle::kFullyDiverse);
  const FrontierPoint monthly = Barracuda(2, 12.0, DeploymentStyle::kFullyDiverse);
  EXPECT_LT(monthly.loss_probability, no_audit.loss_probability / 10.0);
  EXPECT_GT(monthly.annual_cost_usd, no_audit.annual_cost_usd);  // audits are not free
}

TEST(PlannerTest, MoreReplicasImproveReliabilityAndCost) {
  const FrontierPoint two = Barracuda(2, 12.0, DeploymentStyle::kFullyDiverse);
  const FrontierPoint three = Barracuda(3, 12.0, DeploymentStyle::kFullyDiverse);
  EXPECT_LT(three.loss_probability, two.loss_probability);
  EXPECT_NEAR(three.annual_cost_usd / two.annual_cost_usd, 1.5, 1e-9);
}

TEST(PlannerTest, SearchCoversCrossProductByExactCtmc) {
  const FrontierSpace space = SmallSpace();
  const FrontierResult result = Search(SmallTarget(), space);
  EXPECT_EQ(result.points.size(),
            space.media.size() * space.replica_choices.size() *
                space.audit_choices.size() * space.deployment_choices.size());
  for (const FrontierPoint& point : result.points) {
    EXPECT_EQ(point.method, "ctmc") << point.candidate.Describe();
  }
}

TEST(PlannerTest, CheapestQualifyingDesignMeetsTarget) {
  const FrontierTarget target = SmallTarget();
  const FrontierResult result = Search(target, SmallSpace());
  const FrontierPoint* best = nullptr;
  for (const FrontierPoint& point : result.points) {
    if (point.meets_target) {
      best = &point;
      break;
    }
  }
  ASSERT_NE(best, nullptr);
  EXPECT_LE(best->loss_probability, target.target_loss_probability);
  // Nothing cheaper also qualifies.
  for (const FrontierPoint& point : result.points) {
    if (point.loss_probability <= target.target_loss_probability) {
      EXPECT_GE(point.annual_cost_usd, best->annual_cost_usd - 1e-9);
    }
  }
}

TEST(PlannerTest, ImpossibleTargetYieldsNone) {
  FrontierTarget target = SmallTarget();
  target.target_loss_probability = 0.0;
  for (const FrontierPoint& point : Search(target, SmallSpace()).points) {
    EXPECT_FALSE(point.meets_target) << point.candidate.Describe();
  }
}

TEST(PlannerTest, FrontierIsMonotone) {
  size_t members = 0;
  const FrontierPoint* previous = nullptr;
  for (const FrontierPoint& point : Search(SmallTarget(), SmallSpace()).points) {
    if (!point.on_frontier) {
      continue;
    }
    ++members;
    if (previous != nullptr) {
      EXPECT_GE(point.annual_cost_usd, previous->annual_cost_usd);
      EXPECT_LT(point.loss_probability, previous->loss_probability);
    }
    previous = &point;
  }
  EXPECT_GE(members, 2u);
}

TEST(PlannerTest, DescribeMentionsDriveAndDeployment) {
  const std::string description =
      Barracuda(2, 12.0, DeploymentStyle::kFullyDiverse).candidate.Describe();
  EXPECT_NE(description.find("Barracuda"), std::string::npos);
  EXPECT_NE(description.find("fully diverse"), std::string::npos);
  EXPECT_EQ(DeploymentStyleName(DeploymentStyle::kSingleSite), "single site");
}

TEST(PlannerTest, ZeroReplicasThrow) {
  EXPECT_THROW(DeriveParams(SeagateBarracuda200Gb(), 0, 12.0,
                            DeploymentStyle::kFullyDiverse, SmallSpace()),
               std::invalid_argument);
  FrontierSpace space = SmallSpace();
  space.replica_choices = {0};
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FrontierOptions{}, &backend);
  EXPECT_THROW(RunFrontierSearch(SmallTarget(), space, evaluator),
               std::invalid_argument);
}

}  // namespace
}  // namespace longstore
