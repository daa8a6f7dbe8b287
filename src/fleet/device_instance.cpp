#include "fleet/device_instance.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "nn/network.hpp"
#include "platform/detection_cost.hpp"
#include "platform/fast_day.hpp"
#include "platform/scheduler.hpp"

namespace iw::fleet {
namespace {

/// Cap on app classifications per device-day: enough to estimate the wearer's
/// predicted-stress distribution without making fleet throughput scale with
/// the duty cycle.
constexpr std::uint64_t kMaxClassifiedPerDay = 8;

}  // namespace

void accumulate_day_outcome(DeviceOutcome& outcome,
                            const platform::DaySimulationResult& day,
                            int days_run) {
  outcome.days_run = days_run;
  outcome.detections_attempted += day.detections_attempted;
  outcome.detections_completed += day.detections_completed;
  outcome.detections_skipped += day.detections_skipped;
  outcome.harvested_j += day.harvested_j;
  outcome.consumed_j += day.consumed_j;
  outcome.final_soc = day.final_soc;
  outcome.min_soc = std::min({outcome.min_soc, day.final_soc, day.min_soc});

  const double minutes = days_run * 24.0 * 60.0;
  outcome.detections_per_min =
      static_cast<double>(outcome.detections_completed) / minutes;
  outcome.mean_intake_w = outcome.harvested_j / (minutes * 60.0);
  // "Wear and forget": never dipped near empty, and the harvest covered the
  // workload (no skips, battery no worse than it started).
  outcome.self_sustaining = outcome.min_soc > 0.05 &&
                            outcome.final_soc >= outcome.initial_soc - 0.01 &&
                            outcome.detections_skipped == 0;
}

void build_windows_by_level(const core::StressDetectionApp& app,
                            std::array<std::vector<std::size_t>, 3>& buckets) {
  for (std::vector<std::size_t>& bucket : buckets) bucket.clear();
  const nn::Dataset& test = app.test_set();
  for (std::size_t i = 0; i < test.size(); ++i) {
    const std::size_t label = nn::argmax(std::span<const float>(test.targets[i]));
    if (label < buckets.size()) buckets[label].push_back(i);
  }
}

void draw_day_picks(Rng& rng, const Scenario& scenario,
                    const std::array<std::vector<std::size_t>, 3>& buckets,
                    std::uint64_t completed_today,
                    std::vector<std::size_t>& picks) {
  picks.clear();
  const std::uint64_t n = std::min(completed_today, kMaxClassifiedPerDay);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Sample the wearer's true stress level for this window...
    const double u = rng.uniform();
    std::size_t level = u < scenario.stress_mix[0]                           ? 0
                        : u < scenario.stress_mix[0] + scenario.stress_mix[1] ? 1
                                                                              : 2;
    // ...fall back to any non-empty bucket if the app's test split happens to
    // lack that label entirely.
    if (buckets[level].empty()) {
      for (std::size_t l = 0; l < buckets.size(); ++l) {
        if (!buckets[l].empty()) {
          level = l;
          break;
        }
      }
      if (buckets[level].empty()) break;  // app has no test windows
    }
    const std::vector<std::size_t>& bucket = buckets[level];
    picks.push_back(bucket[rng.uniform_int(bucket.size())]);
  }
}

void tally_picks(const core::StressDetectionApp& app,
                 std::span<const std::size_t> picks, DeviceOutcome& outcome) {
  for (const std::size_t pick : picks) ++outcome.class_counts[app.fixed_test_label(pick)];
  outcome.classified += picks.size();
}

DeviceInstance::DeviceInstance(Scenario scenario, const core::StressDetectionApp* app,
                               DeviceScratch* scratch)
    : scenario_(scenario),
      app_(app),
      rng_(scenario.rng_seed),
      scratch_(scratch),
      soc_(scenario.initial_soc) {
  ensure(scenario_.days >= 1, "DeviceInstance: scenario needs at least one day");
  if (scratch_ == nullptr) {
    // Standalone use: own the buffers and run the calibration fit locally.
    own_scratch_ = std::make_unique<DeviceScratch>();
    scratch_ = own_scratch_.get();
  }
  build_day_profile_into(scenario_, base_profile());

  config_.detection = platform::make_detection_cost({});
  config_.detection_period_s = scenario_.detection_period_s;
  config_.initial_soc = scenario_.initial_soc;
  if (scenario_.policy != PolicyKind::kFixedRate) policy_ = make_policy(scenario_);

  outcome_.device_id = scenario_.device_id;
  outcome_.profile = scenario_.profile;
  outcome_.policy = scenario_.policy;
  outcome_.initial_soc = scenario_.initial_soc;
  outcome_.final_soc = scenario_.initial_soc;

  if (app_ != nullptr) {
    // Bucket the shared app's test windows by true label once; detection
    // windows are drawn from the wearer's stress mix out of these buckets.
    build_windows_by_level(*app_, windows_by_level_);
    picks_.reserve(kMaxClassifiedPerDay);
  }
}

bool DeviceInstance::step_day() {
  if (done()) return false;

  // Day-to-day weather/behaviour variation, from this device's own stream.
  const double lux_factor = std::exp(rng_.normal(0.0, scenario_.lux_sigma_day));
  const hv::DayProfile& profile = scaled_profile();
  platform::scale_profile_lux_into(base_profile(), lux_factor, scaled_profile());

  config_.initial_soc = soc_;
  const hv::DualSourceHarvester& harvester = this->harvester();
  const platform::DaySimulationResult day =
      use_fast_day_
          ? (policy_ != nullptr
                 ? platform::simulate_day_fast_with_policy(config_, harvester,
                                                           profile, *policy_)
                 : platform::simulate_day_fast(config_, harvester, profile))
          : (policy_ != nullptr
                 ? platform::simulate_day_with_policy(config_, harvester, profile,
                                                      *policy_)
                 : platform::simulate_day(config_, harvester, profile));

  ++day_;
  soc_ = day.final_soc;
  accumulate_day_outcome(outcome_, day, day_);
  classify_windows(day.detections_completed);
  return !done();
}

void DeviceInstance::run() {
  while (step_day()) {
  }
}

void DeviceInstance::classify_windows(std::uint64_t completed_today) {
  if (app_ == nullptr) return;
  // Draw the day's windows (the RNG sequence is part of the fleet determinism
  // contract), then count them by their deployed fixed-point label.
  draw_day_picks(rng_, scenario_, windows_by_level_, completed_today, picks_);
  tally_picks(*app_, picks_, outcome_);
}

}  // namespace iw::fleet
