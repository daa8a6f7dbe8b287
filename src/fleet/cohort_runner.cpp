#include "fleet/cohort_runner.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "platform/detection_cost.hpp"
#include "platform/scheduler.hpp"

namespace iw::fleet {

CohortRunner::CohortRunner(const core::StressDetectionApp* app) : app_(app) {
  if (app_ != nullptr) build_windows_by_level(*app_, windows_by_level_);
}

const platform::DetectionPolicy* CohortRunner::policy_for(
    const Scenario& scenario) {
  // Fixed-rate devices run the kernel's plain periodic stream, exactly like
  // DeviceInstance (a FixedRatePolicy object would be bit-identical but pays
  // a virtual call per attempt).
  if (scenario.policy == PolicyKind::kFixedRate) return nullptr;
  for (const PooledPolicy& p : policies_) {
    if (p.kind == scenario.policy && p.period_s == scenario.detection_period_s) {
      return p.policy.get();
    }
  }
  policies_.push_back(PooledPolicy{scenario.policy, scenario.detection_period_s,
                                   make_policy(scenario)});
  return policies_.back().policy.get();
}

void CohortRunner::run(std::span<const Scenario> scenarios, FleetStats& stats) {
  const std::size_t n = scenarios.size();
  rngs_.clear();
  base_profiles_.resize(std::max(base_profiles_.size(), n));
  scaled_profiles_.resize(std::max(scaled_profiles_.size(), n));
  configs_.resize(std::max(configs_.size(), n));
  results_.resize(std::max(results_.size(), n));
  lane_policy_.resize(std::max(lane_policy_.size(), n));
  outcomes_.resize(std::max(outcomes_.size(), n));
  socs_.resize(std::max(socs_.size(), n));

  int max_days = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Scenario& s = scenarios[i];
    ensure(s.days >= 1, "CohortRunner: scenario needs at least one day");
    max_days = std::max(max_days, s.days);
    rngs_.emplace_back(s.rng_seed);
    build_day_profile_into(s, base_profiles_[i]);
    platform::DeviceConfig& config = configs_[i];
    config = platform::DeviceConfig{};
    config.detection = platform::make_detection_cost({});
    config.detection_period_s = s.detection_period_s;
    config.initial_soc = s.initial_soc;
    lane_policy_[i] = policy_for(s);
    DeviceOutcome& outcome = outcomes_[i];
    outcome = DeviceOutcome{};
    outcome.device_id = s.device_id;
    outcome.profile = s.profile;
    outcome.policy = s.policy;
    outcome.initial_soc = s.initial_soc;
    outcome.final_soc = s.initial_soc;
    socs_[i] = s.initial_soc;
  }

  for (int day = 1; day <= max_days; ++day) {
    members_.clear();
    active_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (day > scenarios[i].days) continue;
      // Day-to-day weather/behaviour variation, from this device's own
      // stream — drawn in the same per-device order as DeviceInstance.
      const double lux_factor =
          std::exp(rngs_[i].normal(0.0, scenarios[i].lux_sigma_day));
      platform::scale_profile_lux_into(base_profiles_[i], lux_factor,
                                       scaled_profiles_[i]);
      configs_[i].initial_soc = socs_[i];
      members_.push_back(platform::CohortMember{&configs_[i], &harvester_,
                                                &scaled_profiles_[i],
                                                lane_policy_[i], &results_[i]});
      active_.push_back(i);
    }
    cohort_.run_day(members_);

    for (const std::size_t i : active_) {
      const platform::DaySimulationResult& result = results_[i];
      socs_[i] = result.final_soc;
      accumulate_day_outcome(outcomes_[i], result, day);
      if (app_ != nullptr) {
        draw_day_picks(rngs_[i], scenarios[i], windows_by_level_,
                       result.detections_completed, lane_picks_);
        tally_picks(*app_, lane_picks_, outcomes_[i]);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) stats.add(outcomes_[i]);
}

}  // namespace iw::fleet
