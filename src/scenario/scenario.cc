#include "src/scenario/scenario.h"

#include <cmath>
#include <stdexcept>

#include "src/storage/config.h"

namespace longstore {

// --- ReplicaSpec -----------------------------------------------------------

ReplicaSpec& ReplicaSpec::Media(std::string name) {
  media = std::move(name);
  return *this;
}

ReplicaSpec& ReplicaSpec::FaultTimes(Duration visible_mean, Duration latent_mean) {
  mv = visible_mean;
  ml = latent_mean;
  return *this;
}

ReplicaSpec& ReplicaSpec::Weibull(double shape) {
  fault_distribution = FaultDistribution::kWeibull;
  weibull_shape = shape;
  return *this;
}

ReplicaSpec& ReplicaSpec::InitialAge(Duration age) {
  initial_age_hours = age.hours();
  return *this;
}

ReplicaSpec& ReplicaSpec::RepairTimes(Duration visible_repair, Duration latent_repair) {
  mrv = visible_repair;
  mrl = latent_repair;
  return *this;
}

ReplicaSpec& ReplicaSpec::DeterministicRepair() {
  repair_distribution = RepairDistribution::kDeterministic;
  return *this;
}

ReplicaSpec& ReplicaSpec::ScrubWith(ScrubPolicy policy) {
  scrub = policy;
  return *this;
}

ReplicaSpec& ReplicaSpec::ScrubEvery(Duration interval) {
  scrub = ScrubPolicy::Periodic(interval);
  return *this;
}

ReplicaSpec& ReplicaSpec::ScrubPhase(Duration phase) {
  scrub_phase_hours = phase.hours();
  return *this;
}

bool operator==(const ReplicaSpec& a, const ReplicaSpec& b) {
  return a.media == b.media && a.fault_distribution == b.fault_distribution &&
         a.mv == b.mv && a.ml == b.ml && a.weibull_shape == b.weibull_shape &&
         a.initial_age_hours == b.initial_age_hours &&
         a.repair_distribution == b.repair_distribution && a.mrv == b.mrv &&
         a.mrl == b.mrl && a.scrub.kind == b.scrub.kind &&
         a.scrub.interval == b.scrub.interval &&
         a.scrub_phase_hours == b.scrub_phase_hours;
}

std::optional<std::string> ReplicaSpec::Validate() const {
  if (!(mv.hours() > 0.0)) {
    return "mv must be positive (Duration::Infinite() means no visible faults)";
  }
  if (!(ml.hours() > 0.0)) {
    return "ml must be positive (Duration::Infinite() means no latent faults)";
  }
  if (mrv.is_negative() || mrl.is_negative() || mrv.is_infinite() ||
      mrl.is_infinite() || std::isnan(mrv.hours()) || std::isnan(mrl.hours())) {
    return "repair times must be finite and non-negative";
  }
  if (fault_distribution == FaultDistribution::kWeibull &&
      (!(weibull_shape > 0.0) || std::isinf(weibull_shape))) {
    return "weibull_shape must be finite and positive";
  }
  if (!(initial_age_hours >= 0.0) || std::isinf(initial_age_hours)) {
    return "initial age must be finite and non-negative";
  }
  if (fault_distribution == FaultDistribution::kExponential &&
      initial_age_hours > 0.0) {
    return "initial age is meaningless on an exponential replica (the "
           "memoryless fault clock cannot see it); use a Weibull fault "
           "distribution or drop the age";
  }
  if (scrub.kind != ScrubPolicy::Kind::kNone &&
      (!(scrub.interval.hours() > 0.0) || scrub.interval.is_infinite())) {
    // An infinite interval would feed NaN into the periodic tick arithmetic
    // and "never" into ArmAfter (which requires finite times).
    return "scrub interval must be finite and positive";
  }
  if (std::isnan(scrub_phase_hours) || std::isinf(scrub_phase_hours)) {
    return "scrub phase must be finite (negative means automatic)";
  }
  return std::nullopt;
}

// --- Scenario --------------------------------------------------------------

namespace {

std::string ReplicaError(int index, const std::string& error) {
  return "replica " + std::to_string(index) + ": " + error;
}

}  // namespace

std::optional<std::string> Scenario::Validate() const {
  if (replicas.empty()) {
    return "replica_count must be >= 1";
  }
  if (required_intact < 1 || required_intact > replica_count()) {
    return "required_intact must lie in [1, replica_count]";
  }
  if (!(alpha > 0.0) || alpha > 1.0) {
    return "alpha must lie in (0, 1]";
  }
  for (int i = 0; i < replica_count(); ++i) {
    const ReplicaSpec& spec = replicas[static_cast<size_t>(i)];
    if (auto error = spec.Validate()) {
      return ReplicaError(i, *error);
    }
    if (spec.fault_distribution == FaultDistribution::kWeibull) {
      if (alpha < 1.0) {
        return ReplicaError(
            i,
            "hazard-multiplier correlation (alpha < 1) requires exponential "
            "faults; Weibull fault clocks are age-based and cannot be rescaled "
            "memorylessly");
      }
      if (convention == RateConvention::kPaper) {
        return ReplicaError(
            i, "Weibull faults are only supported under the physical convention");
      }
    }
    if (record_scrub_passes && spec.scrub.kind != ScrubPolicy::Kind::kPeriodic) {
      return ReplicaError(i, "record_scrub_passes requires a periodic scrub policy");
    }
  }
  if (convention == RateConvention::kPaper) {
    for (int i = 1; i < replica_count(); ++i) {
      if (!(replicas[static_cast<size_t>(i)] == replicas[0])) {
        return "the paper rate convention models system-level fault clocks at "
               "single-unit rates and cannot express a heterogeneous fleet "
               "(replica " +
               std::to_string(i) +
               " differs from replica 0); use the physical convention";
      }
    }
    if (replicas[0].scrub.kind == ScrubPolicy::Kind::kPeriodic) {
      return "the paper rate convention pairs with memoryless detection; use an "
             "exponential or on-access scrub policy (or the physical convention)";
    }
    if (!common_mode.empty()) {
      return "common-mode sources are only supported under the physical convention";
    }
  }
  for (const CommonModeSource& source : common_mode) {
    if (!(source.event_rate.per_hour() > 0.0) ||
        std::isinf(source.event_rate.per_hour())) {
      // An infinite rate means a zero mean interval: the source would fire
      // an unbounded event storm at time zero.
      return "common-mode source '" + source.name +
             "' needs a positive, finite event rate";
    }
    if (source.hit_probability < 0.0 || source.hit_probability > 1.0 ||
        source.visible_fraction < 0.0 || source.visible_fraction > 1.0) {
      return "common-mode source '" + source.name +
             "' probabilities must lie in [0, 1]";
    }
    for (int member : source.members) {
      if (member < 0 || member >= replica_count()) {
        return "common-mode source '" + source.name + "' has an out-of-range member";
      }
    }
  }
  return std::nullopt;
}

bool Scenario::IsHomogeneous() const {
  for (size_t i = 1; i < replicas.size(); ++i) {
    if (!(replicas[i] == replicas[0])) {
      return false;
    }
  }
  return true;
}

Scenario Scenario::FromLegacy(const StorageSimConfig& config) {
  Scenario scenario;
  scenario.required_intact = config.required_intact;
  scenario.alpha = config.params.alpha;
  scenario.convention = config.convention;
  scenario.scrub_staggered = config.scrub_staggered;
  scenario.record_scrub_passes = config.record_scrub_passes;
  scenario.visible_fault_surfaces_latent = config.visible_fault_surfaces_latent;
  scenario.common_mode = config.common_mode;

  const bool weibull =
      config.fault_distribution == StorageSimConfig::FaultDistribution::kWeibull;
  ReplicaSpec base;
  base.fault_distribution =
      weibull ? FaultDistribution::kWeibull : FaultDistribution::kExponential;
  base.mv = config.params.mv;
  base.ml = config.params.ml;
  // The legacy engine ignores the shape on exponential fleets; canonicalize
  // so behaviorally identical configs get identical scenario identities.
  base.weibull_shape = weibull ? config.weibull_shape : 1.0;
  base.repair_distribution =
      config.repair_distribution == StorageSimConfig::RepairDistribution::kDeterministic
          ? RepairDistribution::kDeterministic
          : RepairDistribution::kExponential;
  base.mrv = config.params.mrv;
  base.mrl = config.params.mrl;
  base.scrub = config.scrub;
  base.scrub_phase_hours = -1.0;  // automatic, matching the legacy stagger

  const int count = config.replica_count;
  // The conversion must stay total even on configs that would fail
  // Validate() (sweep specs convert cells before the runner's validation
  // pass reports the clean error): only consume the age vector when it is
  // well-formed, and never index past it.
  const bool ages_usable =
      weibull && static_cast<int>(config.initial_age_hours.size()) == count;
  scenario.replicas.reserve(count > 0 ? static_cast<size_t>(count) : 0);
  for (int i = 0; i < count; ++i) {
    ReplicaSpec spec = base;
    // Ages only exist for Weibull clocks (the legacy engine ignored them on
    // exponential fleets; dropping them here is behavior-preserving).
    if (ages_usable) {
      spec.initial_age_hours = config.initial_age_hours[static_cast<size_t>(i)];
    }
    scenario.replicas.push_back(std::move(spec));
  }
  return scenario;
}

StorageSimConfig Scenario::ToLegacy() const {
  auto reject = [](int replica, const std::string& why) {
    throw std::invalid_argument("Scenario::ToLegacy: replica " +
                                std::to_string(replica) + ": " + why);
  };
  if (replicas.empty()) {
    throw std::invalid_argument("Scenario::ToLegacy: the scenario has no replicas");
  }
  // The contract is FromLegacy(ToLegacy(s)) == s, canonical-JSON-exactly.
  // StorageSimConfig can express one spec shared by the fleet plus a
  // per-replica initial-age vector; everything else per-replica — and every
  // field FromLegacy normalizes away — must already be in canonical form.
  const ReplicaSpec& first = replicas[0];
  const bool weibull = first.fault_distribution == FaultDistribution::kWeibull;
  bool any_age = false;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaSpec& spec = replicas[i];
    const int index = static_cast<int>(i);
    if (spec.media != "replica") {
      reject(index, "media label \"" + spec.media +
                        "\" is not representable in StorageSimConfig "
                        "(FromLegacy labels every replica \"replica\")");
    }
    // Only the canonical automatic marker round-trips: FromLegacy always
    // emits -1.0, so an explicit phase (>= 0) *and* any other negative
    // spelling would come back different.
    if (spec.scrub_phase_hours != -1.0) {
      reject(index,
             spec.scrub_phase_hours >= 0.0
                 ? "an explicit scrub phase is not representable in "
                   "StorageSimConfig (the flat config only expresses the "
                   "automatic stagger)"
                 : "a non-canonical automatic scrub phase cannot round-trip "
                   "(FromLegacy spells automatic as -1)");
    }
    if (spec.fault_distribution == FaultDistribution::kExponential) {
      if (spec.weibull_shape != 1.0) {
        reject(index,
               "weibull_shape on an exponential replica cannot round-trip "
               "(FromLegacy canonicalizes it to 1)");
      }
      if (spec.initial_age_hours != 0.0) {
        reject(index,
               "an initial age on an exponential replica cannot round-trip "
               "(FromLegacy drops ages on exponential fleets)");
      }
    }
    any_age = any_age || spec.initial_age_hours != 0.0;
    // Per-replica ages are the one heterogeneity the flat config carries;
    // compare everything else field-wise against replica 0.
    ReplicaSpec lhs = spec;
    ReplicaSpec rhs = first;
    lhs.initial_age_hours = 0.0;
    rhs.initial_age_hours = 0.0;
    if (!(lhs == rhs)) {
      reject(index,
             "differs from replica 0 beyond its initial age; StorageSimConfig "
             "only describes homogeneous fleets");
    }
  }

  StorageSimConfig config;
  config.replica_count = replica_count();
  config.required_intact = required_intact;
  config.params.mv = first.mv;
  config.params.ml = first.ml;
  config.params.mrv = first.mrv;
  config.params.mrl = first.mrl;
  // FromLegacy ignores mdl (detection is the scrub policy); emit the
  // policy's analytic latency so legacy closed-form call sites that read
  // params.mdl see a value consistent with the simulated detection process.
  config.params.mdl = first.scrub.MeanDetectionLatency();
  config.params.alpha = alpha;
  config.scrub = first.scrub;
  config.repair_distribution = first.repair_distribution;
  config.fault_distribution = first.fault_distribution;
  config.weibull_shape = first.weibull_shape;
  config.convention = convention;
  config.scrub_staggered = scrub_staggered;
  config.record_scrub_passes = record_scrub_passes;
  config.visible_fault_surfaces_latent = visible_fault_surfaces_latent;
  config.common_mode = common_mode;
  if (weibull && any_age) {
    config.initial_age_hours.reserve(replicas.size());
    for (const ReplicaSpec& spec : replicas) {
      config.initial_age_hours.push_back(spec.initial_age_hours);
    }
  }
  return config;
}

// --- ScenarioBuilder -------------------------------------------------------

ScenarioBuilder& ScenarioBuilder::Replicas(int count, ReplicaSpec spec) {
  if (count < 0) {
    throw std::invalid_argument("ScenarioBuilder::Replicas: count must be >= 0");
  }
  for (int i = 0; i < count; ++i) {
    scenario_.replicas.push_back(spec);
  }
  return *this;
}

ScenarioBuilder& ScenarioBuilder::AddReplica(ReplicaSpec spec) {
  scenario_.replicas.push_back(std::move(spec));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::RequiredIntact(int required_intact) {
  scenario_.required_intact = required_intact;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Correlation(double alpha) {
  scenario_.alpha = alpha;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Convention(RateConvention convention) {
  scenario_.convention = convention;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::StaggeredScrubs() {
  scenario_.scrub_staggered = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::AlignedScrubs() {
  scenario_.scrub_staggered = false;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::RecordScrubPasses() {
  scenario_.record_scrub_passes = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::VisibleFaultSurfacesLatent() {
  scenario_.visible_fault_surfaces_latent = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CommonMode(CommonModeSource source) {
  scenario_.common_mode.push_back(std::move(source));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CommonModeAll(std::string name, Rate event_rate,
                                                double hit_probability,
                                                double visible_fraction) {
  CommonModeSource source;
  source.name = std::move(name);
  source.event_rate = event_rate;
  source.hit_probability = hit_probability;
  source.visible_fraction = visible_fraction;
  all_replica_sources_.push_back(scenario_.common_mode.size());
  scenario_.common_mode.push_back(std::move(source));
  return *this;
}

Scenario ScenarioBuilder::Build() const {
  Scenario scenario = scenario_;
  for (const size_t index : all_replica_sources_) {
    CommonModeSource& source = scenario.common_mode[index];
    source.members.clear();
    for (int i = 0; i < scenario.replica_count(); ++i) {
      source.members.push_back(i);
    }
  }
  if (auto error = scenario.Validate()) {
    throw std::invalid_argument("Scenario: " + *error);
  }
  return scenario;
}

}  // namespace longstore
