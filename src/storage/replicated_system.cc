#include "src/storage/replicated_system.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/rare/biased_sampler.h"

namespace longstore {
namespace {

// The delay DrawFaultDelay schedules when the residual arithmetic cannot
// produce a positive finite one.
constexpr double kWeibullGuardHours = 1e-9;

// The engine's Weibull residual-lifetime delay before its boundary guard:
// with S(x) = exp(-(x/scale)^k), inverting u = S(x)/S(age) gives
// x = scale * ((age/scale)^k - ln u)^(1/k). `age` is in scale units and
// `age_pow_shape` is pow(age, shape).
double WeibullResidualHours(double age, double age_pow_shape, double inv_shape,
                            double scale_hours, double u) {
  const double life = std::pow(age_pow_shape - std::log(u), inv_shape);
  return (life - age) * scale_hours;
}

// Guard both floating-point boundaries: life == age can round the residual
// to zero, and (age/scale)^shape can overflow to infinity for extreme
// age/shape combinations. Either way the hazard is astronomical at this
// age — fail soon, matching the old rejection loop's fallback.
double GuardedResidualHours(double residual_hours) {
  if (!(residual_hours > 0.0) ||
      residual_hours == std::numeric_limits<double>::infinity()) {
    return kWeibullGuardHours;
  }
  return residual_hours;
}

// Rng::NextDoubleOpen's uniform for the draw whose top 53 bits are `b`.
double OpenUniform(uint64_t b) {
  return (static_cast<double>(b) + 1.0) * 0x1.0p-53;
}

constexpr uint64_t kUniformStates = uint64_t{1} << 53;  // values of b

// The first b in [0, kUniformStates] at which `reached(b)` holds, for a
// predicate that turns from false to true once as b grows (kUniformStates
// when it never holds).
template <typename Pred>
uint64_t FirstReached(const Pred& reached) {
  uint64_t lo = 0;
  uint64_t hi = kUniformStates;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (reached(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

std::optional<std::string> StorageSimConfig::Validate() const {
  if (replica_count < 1) {
    return "replica_count must be >= 1";
  }
  if (required_intact < 1 || required_intact > replica_count) {
    return "required_intact must lie in [1, replica_count]";
  }
  if (!initial_age_hours.empty()) {
    if (static_cast<int>(initial_age_hours.size()) != replica_count) {
      return "initial_age_hours must have replica_count entries (or be empty)";
    }
    for (double age : initial_age_hours) {
      if (!(age >= 0.0) || !std::isfinite(age)) {
        return "initial ages must be finite and non-negative";
      }
    }
  }
  if (auto error = params.Validate()) {
    return error;
  }
  if (fault_distribution == FaultDistribution::kWeibull) {
    if (!(weibull_shape > 0.0) || std::isinf(weibull_shape)) {
      return "weibull_shape must be finite and positive";
    }
    if (params.alpha < 1.0) {
      return "hazard-multiplier correlation (alpha < 1) requires exponential faults; "
             "Weibull fault clocks are age-based and cannot be rescaled memorylessly";
    }
    if (convention == RateConvention::kPaper) {
      return "Weibull faults are only supported under the physical convention";
    }
  }
  if (convention == RateConvention::kPaper) {
    if (scrub.kind == ScrubPolicy::Kind::kPeriodic) {
      return "the paper rate convention pairs with memoryless detection; use an "
             "exponential or on-access scrub policy (or the physical convention)";
    }
    if (!common_mode.empty()) {
      return "common-mode sources are only supported under the physical convention";
    }
  }
  if (scrub.kind != ScrubPolicy::Kind::kNone &&
      (!(scrub.interval.hours() > 0.0) || scrub.interval.is_infinite())) {
    // An infinite interval would feed NaN into the periodic tick arithmetic
    // and "never" into ArmAfter (which requires finite times).
    return "scrub interval must be finite and positive";
  }
  if (record_scrub_passes && scrub.kind != ScrubPolicy::Kind::kPeriodic) {
    return "record_scrub_passes requires a periodic scrub policy";
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
      return "common-mode source '" + source.name + "' probabilities must lie in [0, 1]";
    }
    for (int member : source.members) {
      if (member < 0 || member >= replica_count) {
        return "common-mode source '" + source.name + "' has an out-of-range member";
      }
    }
  }
  return std::nullopt;
}

ReplicatedStorageSystem::ReplicatedStorageSystem(Simulator* sim, Rng* rng,
                                                 Scenario scenario,
                                                 TraceRecorder* trace,
                                                 ConfigValidation validation)
    : sim_(sim), rng_(rng), scenario_(std::move(scenario)), trace_(trace) {
  if (validation == ConfigValidation::kValidate) {
    if (auto error = scenario_.Validate()) {
      throw std::invalid_argument("Scenario: " + *error);
    }
  } else {
#ifndef NDEBUG
    // The caller promised it validated already; cross-check in debug builds.
    if (auto error = scenario_.Validate()) {
      throw std::logic_error("Scenario passed as pre-validated but invalid: " + *error);
    }
#endif
  }
  replica_count_ = scenario_.replica_count();
  // The source after the last common-mode source is the source count.
  sim_->Attach(this, CommonModeSourceOf(scenario_.common_mode.size()));
  required_intact_ = scenario_.required_intact;
  alpha_ = scenario_.alpha;
  convention_ = scenario_.convention;
  record_scrub_passes_ = scenario_.record_scrub_passes;
  visible_fault_surfaces_latent_ = scenario_.visible_fault_surfaces_latent;
  replicas_.resize(static_cast<size_t>(replica_count_));
  repair_ring_.resize(static_cast<size_t>(replica_count_), 0);
  ResolveSpecs();
  InitializeState();
  BuildInitialDrawPlan();
}

ReplicatedStorageSystem::ReplicatedStorageSystem(Simulator* sim, Rng* rng,
                                                 StorageSimConfig config,
                                                 TraceRecorder* trace,
                                                 ConfigValidation validation)
    : ReplicatedStorageSystem(sim, rng,
                              [&config, validation]() {
                                if (validation == ConfigValidation::kValidate) {
                                  if (auto error = config.Validate()) {
                                    throw std::invalid_argument("StorageSimConfig: " +
                                                                *error);
                                  }
                                }
                                return Scenario::FromLegacy(config);
                              }(),
                              trace,
                              // A valid legacy config converts to a valid
                              // scenario; skip re-validating the conversion.
                              validation == ConfigValidation::kValidate
                                  ? ConfigValidation::kPreValidated
                                  : validation) {}

void ReplicatedStorageSystem::ResolveSpecs() {
  resolved_.resize(static_cast<size_t>(replica_count_));
  for (int i = 0; i < replica_count_; ++i) {
    const ReplicaSpec& spec = scenario_.replicas[static_cast<size_t>(i)];
    ResolvedReplica& r = resolved_[static_cast<size_t>(i)];
    r.mv = spec.mv;
    r.ml = spec.ml;
    r.mrv = spec.mrv;
    r.mrl = spec.mrl;
    r.fault_distribution = spec.fault_distribution;
    r.repair_distribution = spec.repair_distribution;
    r.weibull_shape = spec.weibull_shape;
    if (spec.fault_distribution == FaultDistribution::kWeibull) {
      const double gamma = std::tgamma(1.0 + 1.0 / spec.weibull_shape);
      r.weibull_scale_mv = spec.mv / gamma;
      r.weibull_scale_ml = spec.ml / gamma;
    } else {
      r.weibull_scale_mv = Duration::Infinite();
      r.weibull_scale_ml = Duration::Infinite();
    }
    r.initial_age = Duration::Hours(spec.initial_age_hours);
    r.scrub = spec.scrub;
    if (spec.scrub_phase_hours >= 0.0) {
      r.scrub_phase = Duration::Hours(spec.scrub_phase_hours);
    } else if (spec.scrub.kind == ScrubPolicy::Kind::kPeriodic &&
               scenario_.scrub_staggered) {
      r.scrub_phase =
          spec.scrub.interval * (static_cast<double>(i) / replica_count_);
    } else {
      r.scrub_phase = Duration::Zero();
    }
  }
}

void ReplicatedStorageSystem::InitializeState() {
  for (int i = 0; i < replica_count_; ++i) {
    auto& replica = replicas_[static_cast<size_t>(i)];
    replica.state = ReplicaState::kHealthy;
    replica.current_fault = FaultKind::kVisible;
    replica.fault_time = Duration::Zero();
    // A pre-aged replica has a birth time in the (virtual) past.
    replica.birth_time =
        Duration::Zero() - resolved_[static_cast<size_t>(i)].initial_age;
  }
  faulty_count_ = 0;
  lost_ = false;
  loss_time_ = Duration::Zero();
  metrics_ = SimMetrics{};
  window_open_ = false;
  window_first_fault_ = FaultKind::kVisible;
  repair_head_ = 0;
  repair_queued_ = 0;
  repair_active_ = false;
  started_ = false;
}

double ReplicatedStorageSystem::InitialDrawSite::DelayHours(uint64_t b) const {
  const double u = OpenUniform(b);
  if (weibull) {
    return GuardedResidualHours(
        WeibullResidualHours(age0, age0_pow_shape, inv_shape, scale_hours, u));
  }
  return -std::log(u) * mean_hours;  // Rng::NextExponential
}

InitialDrawThreshold ComputeInitialDrawThreshold(
    const ReplicatedStorageSystem::InitialDrawSite& site, double horizon_hours) {
  // The guard maps a non-positive or overflowing Weibull residual to
  // kWeibullGuardHours, which breaks monotonicity when the horizon is below
  // that delay or when the largest draws overflow: leave every draw to the
  // exact arithmetic then.
  if (site.weibull &&
      (!(horizon_hours >= kWeibullGuardHours) ||
       std::isinf(WeibullResidualHours(site.age0, site.age0_pow_shape,
                                       site.inv_shape, site.scale_hours,
                                       OpenUniform(0))))) {
    return InitialDrawThreshold{0, kUniformStates};
  }
  // T: the first b whose delay no longer clears the horizon.
  const uint64_t t = FirstReached(
      [&](uint64_t b) { return !(site.DelayHours(b) > horizon_hours); });
  InitialDrawThreshold threshold;
  threshold.beyond_below = t > kInitialDrawMargin ? t - kInitialDrawMargin : 0;
  threshold.within_from = std::min(kUniformStates, t + kInitialDrawMargin);
  return threshold;
}

void ReplicatedStorageSystem::BuildInitialDrawPlan() {
  // Lists the random draws Start() makes, one site per draw in the order
  // Start() consumes them: each replica's visible then latent fault clock
  // (skipping infinite means), or the two system clocks under kPaper, then
  // one clock per common-mode source. The first scrub tick comes from the
  // same ScrubTickAfter() that schedules it. A change to Start()'s draw order
  // must be made here too; PrefilterTest.DerivedKernelMatchesPerTrialRunFold
  // (tests/prefilter_test.cc) fails if the two disagree.
  initial_draw_sites_.clear();
  const auto add_exponential = [&](Duration mean) {
    if (mean.is_infinite()) {
      return;  // never fires; the engine draws nothing (NextExponential guard)
    }
    InitialDrawSite site;
    site.mean_hours = mean.hours();  // CorrelationMultiplier() == 1 at start
    initial_draw_sites_.push_back(site);
  };
  const auto add_fault_site = [&](const ResolvedReplica& rp, FaultKind kind) {
    const Duration mean = kind == FaultKind::kVisible ? rp.mv : rp.ml;
    if (mean.is_infinite()) {
      return;  // ScheduleReplicaFaults skips the draw entirely
    }
    if (rp.fault_distribution != FaultDistribution::kWeibull) {
      add_exponential(mean);
      return;
    }
    InitialDrawSite site;
    site.weibull = true;
    site.shape = rp.weibull_shape;
    site.inv_shape = 1.0 / rp.weibull_shape;
    const Duration scale =
        kind == FaultKind::kVisible ? rp.weibull_scale_mv : rp.weibull_scale_ml;
    site.scale_hours = scale.hours();
    site.age0 = rp.initial_age.hours() / scale.hours();
    site.age0_pow_shape = std::pow(site.age0, rp.weibull_shape);
    initial_draw_sites_.push_back(site);
  };
  if (convention_ == RateConvention::kPaper) {
    // System-level clocks on replica 0's rates; always exponential
    // (validation rejects kPaper + Weibull).
    add_exponential(resolved_[0].mv);
    add_exponential(resolved_[0].ml);
  } else {
    for (int i = 0; i < replica_count_; ++i) {
      const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
      add_fault_site(rp, FaultKind::kVisible);
      add_fault_site(rp, FaultKind::kLatent);
      // ScheduleScrubTick between replicas consumes no draw.
    }
  }
  for (const CommonModeSource& source : scenario_.common_mode) {
    add_exponential(source.event_rate.MeanInterval());
  }

  initial_deterministic_event_ = Duration::Infinite();
  if (convention_ != RateConvention::kPaper && record_scrub_passes_) {
    for (int i = 0; i < replica_count_; ++i) {
      const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
      const Duration tick = ScrubTickAfter(rp, Duration::Zero());
      if (tick < initial_deterministic_event_) {
        initial_deterministic_event_ = tick;
      }
    }
  }
}

void ReplicatedStorageSystem::Reset() { InitializeState(); }

void ReplicatedStorageSystem::Start() {
  if (started_) {
    throw std::logic_error("ReplicatedStorageSystem::Start called twice");
  }
  started_ = true;
  if (convention_ == RateConvention::kPaper) {
    ScheduleSystemFaultClocks();
  } else {
    for (int i = 0; i < replica_count_; ++i) {
      ScheduleReplicaFaults(i);
      if (record_scrub_passes_) {
        ScheduleScrubTick(i);
      }
    }
  }
  for (size_t s = 0; s < scenario_.common_mode.size(); ++s) {
    ScheduleCommonModeSource(s);
  }
}

void ReplicatedStorageSystem::OnSimEvent(uint16_t tag, int32_t a, int32_t /*b*/) {
  switch (static_cast<EventTag>(tag)) {
    case kEvVisibleFault:
      OnVisibleFault(a);
      return;
    case kEvLatentFault:
      OnLatentFault(a);
      return;
    case kEvDetect:
      OnDetect(a);
      return;
    case kEvScrubTick:
      OnScrubTick(a);
      return;
    case kEvRepairComplete:
      OnRepairComplete(a);
      return;
    case kEvSystemVisibleFault:
      OnSystemFault(FaultKind::kVisible);
      return;
    case kEvSystemLatentFault:
      OnSystemFault(FaultKind::kLatent);
      return;
    case kEvSystemDetect:
      OnSystemDetect();
      return;
    case kEvCommonMode:
      OnCommonModeEvent(static_cast<size_t>(a));
      return;
  }
  throw std::logic_error("ReplicatedStorageSystem: unknown event tag");
}

double ReplicatedStorageSystem::CorrelationMultiplier() const {
  return faulty_count_ > 0 ? 1.0 / alpha_ : 1.0;
}

Duration ReplicatedStorageSystem::DrawFaultDelay(int i, FaultKind kind) const {
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  if (rp.fault_distribution == FaultDistribution::kWeibull) {
    // Exact residual-lifetime draw, conditioned on survival to the replica's
    // current age (WeibullResidualHours). One uniform, O(1), no rejection
    // loop.
    const double shape = rp.weibull_shape;
    const Duration scale =
        kind == FaultKind::kVisible ? rp.weibull_scale_mv : rp.weibull_scale_ml;
    const Replica& replica = replicas_[static_cast<size_t>(i)];
    const double age = (sim_->now() - replica.birth_time).hours() / scale.hours();
    if (fault_sampler_ != nullptr) {
      return fault_sampler_->DrawWeibullResidualFault(
          *rng_, shape, scale, age, kind, /*forcing_eligible=*/sim_->now().is_zero());
    }
    const double u = rng_->NextDoubleOpen();
    return Duration::Hours(GuardedResidualHours(WeibullResidualHours(
        age, std::pow(age, shape), 1.0 / shape, scale.hours(), u)));
  }
  const Duration mean = kind == FaultKind::kVisible ? rp.mv : rp.ml;
  if (fault_sampler_ != nullptr) {
    return fault_sampler_->DrawExponentialFault(
        *rng_, mean / CorrelationMultiplier(), kind,
        /*forcing_eligible=*/sim_->now().is_zero());
  }
  return rng_->NextExponential(mean / CorrelationMultiplier());
}

Duration ReplicatedStorageSystem::DrawRepairDuration(int i, FaultKind kind) const {
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  const Duration mean = kind == FaultKind::kVisible ? rp.mrv : rp.mrl;
  if (rp.repair_distribution == RepairDistribution::kDeterministic) {
    return mean;
  }
  return rng_->NextExponential(mean);
}

Duration ReplicatedStorageSystem::ScrubTickAfter(const ResolvedReplica& rp,
                                                Duration now) {
  const Duration period = rp.scrub.interval;
  const double periods_elapsed =
      std::floor((now - rp.scrub_phase).hours() / period.hours()) + 1.0;
  Duration tick = rp.scrub_phase + period * periods_elapsed;
  if (tick <= now) {
    tick += period;  // floating-point boundary guard
  }
  return tick;
}

void ReplicatedStorageSystem::ScheduleReplicaFaults(int i) {
  auto& replica = replicas_[static_cast<size_t>(i)];
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  const uint32_t clock = SourceOf(i, kFaultClock);
  sim_->Disarm(clock);
  if (replica.state == ReplicaState::kHealthy) {
    // Both fault clocks are always disarmed and redrawn together (on a
    // fault, a repair, or a correlation change), so only the earlier of the
    // two can ever fire: draw both delays (keeping the random stream
    // unchanged) but arm the fault clock with just the winner. Visible wins
    // ties, matching the old visible-first scheduling order.
    const bool has_visible = !rp.mv.is_infinite();
    const bool has_latent = !rp.ml.is_infinite();
    const Duration visible_delay =
        has_visible ? DrawFaultDelay(i, FaultKind::kVisible) : Duration::Zero();
    const Duration latent_delay =
        has_latent ? DrawFaultDelay(i, FaultKind::kLatent) : Duration::Zero();
    if (has_visible && (!has_latent || visible_delay <= latent_delay)) {
      sim_->ArmAfter(clock, visible_delay, kEvVisibleFault, i);
    } else if (has_latent) {
      sim_->ArmAfter(clock, latent_delay, kEvLatentFault, i);
    }
  } else if (replica.state == ReplicaState::kLatentFaulty &&
             visible_fault_surfaces_latent_ && !rp.mv.is_infinite()) {
    const Duration delay = DrawFaultDelay(i, FaultKind::kVisible);
    sim_->ArmAfter(clock, delay, kEvVisibleFault, i);
  }
}

void ReplicatedStorageSystem::RescheduleFaultsForCorrelationChange() {
  if (alpha_ >= 1.0) {
    return;  // no hazard change; exponential clocks stay valid (memoryless)
  }
  if (convention_ == RateConvention::kPaper) {
    ScheduleSystemFaultClocks();
    return;
  }
  for (int i = 0; i < replica_count_; ++i) {
    ScheduleReplicaFaults(i);
  }
}

void ReplicatedStorageSystem::ScheduleSystemFaultClocks() {
  sim_->Disarm(SystemFaultClock());
  if (lost_ || intact_count() == 0) {
    return;
  }
  // As with the per-replica clocks, the pair is always redrawn together
  // after either fires, so only the earlier one is armed. kPaper fleets
  // are homogeneous; replica 0 carries the system-level rates.
  const ResolvedReplica& rp = resolved_[0];
  const double mult = CorrelationMultiplier();
  const bool has_visible = !rp.mv.is_infinite();
  const bool has_latent = !rp.ml.is_infinite();
  const bool forcing_eligible = sim_->now().is_zero();
  const auto draw = [&](Duration mean, FaultKind kind) {
    return fault_sampler_ != nullptr
               ? fault_sampler_->DrawExponentialFault(*rng_, mean, kind,
                                                      forcing_eligible)
               : rng_->NextExponential(mean);
  };
  const Duration visible_delay =
      has_visible ? draw(rp.mv / mult, FaultKind::kVisible) : Duration::Zero();
  const Duration latent_delay =
      has_latent ? draw(rp.ml / mult, FaultKind::kLatent) : Duration::Zero();
  if (has_visible && (!has_latent || visible_delay <= latent_delay)) {
    sim_->ArmAfter(SystemFaultClock(), visible_delay, kEvSystemVisibleFault);
  } else if (has_latent) {
    sim_->ArmAfter(SystemFaultClock(), latent_delay, kEvSystemLatentFault);
  }
}

void ReplicatedStorageSystem::ScheduleDetection(int i) {
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  const uint32_t detect = SourceOf(i, kDetectSource);
  sim_->Disarm(detect);
  switch (rp.scrub.kind) {
    case ScrubPolicy::Kind::kNone:
      return;
    case ScrubPolicy::Kind::kPeriodic: {
      if (record_scrub_passes_) {
        return;  // the scrub-tick loop performs detection
      }
      const Duration tick = ScrubTickAfter(rp, sim_->now());
      sim_->Arm(detect, tick, kEvDetect, i);
      return;
    }
    case ScrubPolicy::Kind::kExponential:
    case ScrubPolicy::Kind::kOnAccess: {
      const Duration delay = rng_->NextExponential(rp.scrub.interval);
      sim_->ArmAfter(detect, delay, kEvDetect, i);
      return;
    }
  }
}

void ReplicatedStorageSystem::ScheduleScrubTick(int i) {
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  sim_->Arm(SourceOf(i, kScrubTickSource), ScrubTickAfter(rp, sim_->now()),
            kEvScrubTick, i);
}

void ReplicatedStorageSystem::ScheduleCommonModeSource(size_t source_index) {
  const CommonModeSource& source = scenario_.common_mode[source_index];
  const Duration delay = rng_->NextExponential(source.event_rate);
  sim_->ArmAfter(CommonModeSourceOf(source_index), delay, kEvCommonMode,
                 static_cast<int32_t>(source_index));
}

void ReplicatedStorageSystem::OnVisibleFault(int i) {
  auto& replica = replicas_[static_cast<size_t>(i)];
  if (replica.state == ReplicaState::kFaultyDetected) {
    return;  // already being rebuilt; nothing new to learn
  }
  if (replica.state == ReplicaState::kLatentFaulty) {
    if (!visible_fault_surfaces_latent_) {
      return;
    }
    // The whole-replica failure surfaces the latent fault: detection via
    // rebuild rather than audit.
    metrics_.latent_detections++;
    metrics_.detection_latency_hours.Add((sim_->now() - replica.fault_time).hours());
    sim_->Disarm(SourceOf(i, kDetectSource));
    RecordTrace(TraceEventKind::kLatentDetected, i, "surfaced by visible fault");
    replica.state = ReplicaState::kFaultyDetected;
    StartRepair(i);
    return;
  }
  metrics_.visible_faults++;
  RecordTrace(TraceEventKind::kVisibleFault, i);
  InflictFault(i, FaultKind::kVisible, /*detected=*/true);
}

void ReplicatedStorageSystem::OnLatentFault(int i) {
  if (replicas_[static_cast<size_t>(i)].state != ReplicaState::kHealthy) {
    return;
  }
  metrics_.latent_faults++;
  RecordTrace(TraceEventKind::kLatentFault, i);
  InflictFault(i, FaultKind::kLatent, /*detected=*/false);
}

void ReplicatedStorageSystem::OnDetect(int i) {
  auto& replica = replicas_[static_cast<size_t>(i)];
  if (replica.state != ReplicaState::kLatentFaulty) {
    return;
  }
  metrics_.latent_detections++;
  metrics_.detection_latency_hours.Add((sim_->now() - replica.fault_time).hours());
  RecordTrace(TraceEventKind::kLatentDetected, i);
  replica.state = ReplicaState::kFaultyDetected;
  StartRepair(i);
}

void ReplicatedStorageSystem::OnScrubTick(int i) {
  if (lost_) {
    return;
  }
  RecordTrace(TraceEventKind::kScrubPass, i);
  if (replicas_[static_cast<size_t>(i)].state == ReplicaState::kLatentFaulty) {
    OnDetect(i);
  }
  ScheduleScrubTick(i);
}

void ReplicatedStorageSystem::InflictFault(int i, FaultKind kind, bool detected) {
  auto& replica = replicas_[static_cast<size_t>(i)];
  sim_->Disarm(SourceOf(i, kFaultClock));

  const int previously_faulty = faulty_count_;
  if (window_open_ && previously_faulty >= 1) {
    // Second fault inside an open window: Figure 2 bookkeeping. Only the
    // second fault is classified; the window then closes for counting.
    metrics_.second_faults[static_cast<int>(window_first_fault_)]
                          [static_cast<int>(kind)]++;
    window_open_ = false;
  } else if (previously_faulty == 0) {
    window_open_ = true;
    window_first_fault_ = kind;
    metrics_.windows_opened[static_cast<int>(kind)]++;
  }

  ++faulty_count_;
  replica.state = detected ? ReplicaState::kFaultyDetected : ReplicaState::kLatentFaulty;
  replica.current_fault = kind;
  replica.fault_time = sim_->now();

  if (replica_count_ - faulty_count_ < required_intact_) {
    lost_ = true;
    loss_time_ = sim_->now();
    RecordTrace(TraceEventKind::kDataLoss, -1);
    sim_->Stop();
    return;
  }

  if (detected) {
    StartRepair(i);
  } else {
    if (convention_ == RateConvention::kPaper) {
      if (!sim_->armed(SystemDetectSource()) &&
          resolved_[0].scrub.kind != ScrubPolicy::Kind::kNone) {
        const Duration delay = rng_->NextExponential(resolved_[0].scrub.interval);
        sim_->ArmAfter(SystemDetectSource(), delay, kEvSystemDetect);
      }
    } else {
      ScheduleDetection(i);
      if (visible_fault_surfaces_latent_) {
        ScheduleReplicaFaults(i);  // keep a visible-fault clock running
      }
    }
  }

  if (previously_faulty == 0) {
    RescheduleFaultsForCorrelationChange();
  }
}

void ReplicatedStorageSystem::StartRepair(int i) {
  if (convention_ == RateConvention::kPaper) {
    repair_ring_[(repair_head_ + repair_queued_) % repair_ring_.size()] = i;
    ++repair_queued_;
    if (!repair_active_) {
      BeginNextSerialRepair();
    }
    return;
  }
  auto& replica = replicas_[static_cast<size_t>(i)];
  const Duration duration = DrawRepairDuration(i, replica.current_fault);
  RecordTrace(TraceEventKind::kRepairStarted, i);
  sim_->ArmAfter(SourceOf(i, kRepairSource), duration, kEvRepairComplete, i);
}

void ReplicatedStorageSystem::BeginNextSerialRepair() {
  if (repair_queued_ == 0) {
    repair_active_ = false;
    return;
  }
  repair_active_ = true;
  const int i = repair_ring_[repair_head_];
  repair_head_ = (repair_head_ + 1) % repair_ring_.size();
  --repair_queued_;
  auto& replica = replicas_[static_cast<size_t>(i)];
  const Duration duration = DrawRepairDuration(i, replica.current_fault);
  RecordTrace(TraceEventKind::kRepairStarted, i);
  sim_->ArmAfter(SourceOf(i, kRepairSource), duration, kEvRepairComplete, i);
}

void ReplicatedStorageSystem::OnRepairComplete(int i) {
  auto& replica = replicas_[static_cast<size_t>(i)];
  metrics_.repairs_completed++;
  metrics_.repair_duration_hours.Add((sim_->now() - replica.fault_time).hours());
  RecordTrace(TraceEventKind::kRepairCompleted, i);

  replica.state = ReplicaState::kHealthy;
  replica.birth_time = sim_->now();
  --faulty_count_;

  if (faulty_count_ == 0 && window_open_) {
    metrics_.windows_survived[static_cast<int>(window_first_fault_)]++;
    window_open_ = false;
  }

  if (convention_ == RateConvention::kPaper) {
    BeginNextSerialRepair();
    if (faulty_count_ == 0) {
      RescheduleFaultsForCorrelationChange();
    }
    return;
  }

  if (faulty_count_ == 0 && alpha_ < 1.0) {
    // Correlation relaxes: redraw every healthy replica, including this one.
    RescheduleFaultsForCorrelationChange();
  } else {
    ScheduleReplicaFaults(i);
  }
}

void ReplicatedStorageSystem::OnSystemFault(FaultKind kind) {
  if (lost_ || intact_count() == 0) {
    return;
  }
  const int target = PickRandomHealthyReplica();
  if (kind == FaultKind::kVisible) {
    metrics_.visible_faults++;
    RecordTrace(TraceEventKind::kVisibleFault, target);
    InflictFault(target, kind, /*detected=*/true);
  } else {
    metrics_.latent_faults++;
    RecordTrace(TraceEventKind::kLatentFault, target);
    InflictFault(target, kind, /*detected=*/false);
  }
  if (!lost_) {
    ScheduleSystemFaultClocks();
  }
}

void ReplicatedStorageSystem::OnSystemDetect() {
  if (lost_) {
    return;
  }
  const std::optional<int> target = OldestUndetectedLatent();
  if (!target) {
    return;
  }
  OnDetect(*target);
  // Another undetected latent fault keeps the serial audit busy.
  if (OldestUndetectedLatent().has_value()) {
    const Duration delay = rng_->NextExponential(resolved_[0].scrub.interval);
    sim_->ArmAfter(SystemDetectSource(), delay, kEvSystemDetect);
  }
}

void ReplicatedStorageSystem::OnCommonModeEvent(size_t source_index) {
  if (lost_) {
    return;
  }
  const CommonModeSource& source = scenario_.common_mode[source_index];
  metrics_.common_mode_events++;
  RecordTrace(TraceEventKind::kCommonModeEvent, -1, source.name);
  for (int member : source.members) {
    if (lost_) {
      break;  // a hit mid-event may already have destroyed the last replica
    }
    const auto& replica = replicas_[static_cast<size_t>(member)];
    if (replica.state != ReplicaState::kHealthy) {
      continue;
    }
    if (!rng_->NextBernoulli(source.hit_probability)) {
      continue;
    }
    const bool visible = rng_->NextBernoulli(source.visible_fraction);
    metrics_.common_mode_faults++;
    if (visible) {
      metrics_.visible_faults++;
      RecordTrace(TraceEventKind::kVisibleFault, member, source.name);
      InflictFault(member, FaultKind::kVisible, /*detected=*/true);
    } else {
      metrics_.latent_faults++;
      RecordTrace(TraceEventKind::kLatentFault, member, source.name);
      InflictFault(member, FaultKind::kLatent, /*detected=*/false);
    }
  }
  if (!lost_) {
    ScheduleCommonModeSource(source_index);
  }
}

int ReplicatedStorageSystem::PickRandomHealthyReplica() {
  // Single bounded draw, then a scan for the k-th healthy replica: same
  // distribution (and same rng consumption) as materializing the healthy
  // list, without the per-call vector.
  uint64_t k = rng_->NextBounded(static_cast<uint64_t>(intact_count()));
  for (int i = 0; i < replica_count_; ++i) {
    if (replicas_[static_cast<size_t>(i)].state == ReplicaState::kHealthy) {
      if (k == 0) {
        return i;
      }
      --k;
    }
  }
  throw std::logic_error("PickRandomHealthyReplica: no healthy replica");
}

std::optional<int> ReplicatedStorageSystem::OldestUndetectedLatent() const {
  std::optional<int> best;
  for (int i = 0; i < replica_count_; ++i) {
    const auto& replica = replicas_[static_cast<size_t>(i)];
    if (replica.state != ReplicaState::kLatentFaulty) {
      continue;
    }
    if (!best ||
        replica.fault_time < replicas_[static_cast<size_t>(*best)].fault_time) {
      best = i;
    }
  }
  return best;
}

void ReplicatedStorageSystem::RecordTraceImpl(TraceEventKind kind, int replica,
                                              std::string detail) {
  trace_->Record(sim_->now(), kind, replica, std::move(detail));
}

TrialRunner::TrialRunner(const Scenario& scenario, ConfigValidation validation)
    : rng_(0), system_(&sim_, &rng_, scenario, /*trace=*/nullptr, validation) {}

TrialRunner::TrialRunner(const StorageSimConfig& config, ConfigValidation validation)
    : rng_(0), system_(&sim_, &rng_, config, /*trace=*/nullptr, validation) {}

TrialRunner::TrialRunner(const Scenario& scenario, ConfigValidation validation,
                         const FaultBias& bias)
    : rng_(0),
      system_(&sim_, &rng_, scenario, /*trace=*/nullptr, validation),
      sampler_(std::make_unique<BiasedFaultSampler>(bias)) {
  system_.set_fault_sampler(sampler_.get());
}

TrialRunner::TrialRunner(const StorageSimConfig& config, ConfigValidation validation,
                         const FaultBias& bias)
    : rng_(0),
      system_(&sim_, &rng_, config, /*trace=*/nullptr, validation),
      sampler_(std::make_unique<BiasedFaultSampler>(bias)) {
  system_.set_fault_sampler(sampler_.get());
}

TrialRunner::~TrialRunner() = default;

void TrialRunner::SeedTrial(TrialStreams streams, uint64_t seed, int64_t trial) {
  if (streams == TrialStreams::kCounter) {
    rng_.ReseedCounter(seed, static_cast<uint64_t>(trial));
  } else {
    rng_.Reseed(DeriveSeed(seed, static_cast<uint64_t>(trial)));
  }
}

RunOutcome TrialRunner::Run(uint64_t seed, Duration horizon) {
  rng_.Reseed(seed);
  return RunSeeded(horizon);
}

RunOutcome TrialRunner::RunCounter(uint64_t key, uint64_t trial, Duration horizon) {
  rng_.ReseedCounter(key, trial);
  return RunSeeded(horizon);
}

RunOutcome TrialRunner::RunTrial(TrialStreams streams, uint64_t seed,
                                 int64_t trial, Duration horizon) {
  SeedTrial(streams, seed, trial);
  return RunSeeded(horizon);
}

RunOutcome TrialRunner::RunSeeded(Duration horizon) {
  sim_.Reset();
  system_.Reset();
  if (sampler_ != nullptr) {
    // The forcing window is the trial horizon: for mission-loss estimation
    // the first fault is pulled into the mission itself.
    sampler_->BeginTrial(horizon);
  }
  system_.Start();
  sim_.RunUntil(horizon);
  RunOutcome outcome;
  outcome.metrics = system_.metrics();
  if (system_.lost()) {
    outcome.loss_time = system_.loss_time();
  }
  if (sampler_ != nullptr) {
    outcome.log_weight = sampler_->log_weight();
  }
  return outcome;
}

bool TrialRunner::PrefilterBlock(TrialStreams streams, uint64_t seed,
                                 int64_t begin_trial, int count,
                                 Duration horizon, uint8_t* skip) {
  if (sampler_ != nullptr || horizon.is_infinite()) {
    return false;  // biased draws / unbounded runs: every trial must execute
  }
  if (!(system_.initial_deterministic_event().hours() > horizon.hours())) {
    return false;  // a scrub tick fires inside the horizon in every trial
  }
  if (count <= 0 || count > kTrialPrefilterMaxBlock) {
    return false;
  }
  const std::vector<ReplicatedStorageSystem::InitialDrawSite>& sites =
      system_.initial_draw_sites();
  const double horizon_hours = horizon.hours();
  if (!(horizon_hours == threshold_hours_)) {
    thresholds_.resize(sites.size());  // allocates on first use only
    for (size_t j = 0; j < sites.size(); ++j) {
      thresholds_[j] = ComputeInitialDrawThreshold(sites[j], horizon_hours);
    }
    threshold_hours_ = horizon_hours;
  }
  // Trial t's draws come from rng_ seeded exactly as RunTrial seeds it, so
  // draw j is the uniform Start() would consume at site j. A trial stops at
  // its first draw inside the horizon.
  for (int i = 0; i < count; ++i) {
    SeedTrial(streams, seed, begin_trial + i);
    uint8_t eventless = 1;
    for (size_t j = 0; j < sites.size(); ++j) {
      if (!InitialDrawBeyond(sites[j], thresholds_[j], rng_.Next() >> 11,
                             horizon_hours)) {
        eventless = 0;
        break;
      }
    }
    skip[i] = eventless;
  }
  return true;
}

bool TrialRunner::PrefilterCensoredBlock(uint64_t key, int64_t begin_trial,
                                         int count, Duration horizon,
                                         uint8_t* skip) {
  return PrefilterBlock(TrialStreams::kCounter, key, begin_trial, count,
                        horizon, skip);
}

RunOutcome RunToLossOrHorizon(const Scenario& scenario, uint64_t seed,
                              Duration horizon) {
  TrialRunner runner(scenario);
  return runner.Run(seed, horizon);
}

RunOutcome RunToLossOrHorizon(const StorageSimConfig& config, uint64_t seed,
                              Duration horizon) {
  TrialRunner runner(config);
  return runner.Run(seed, horizon);
}

}  // namespace longstore
