// Fleet driver for the structure-of-arrays cohort day kernel.
//
// Where the per-device loop (DeviceInstance) simulates one device to
// completion before touching the next, the cohort runner advances a whole
// chunk of devices one day at a time through platform::CohortDayState — so
// segment tables, the detection-gate window and the policy objects are
// shared across the cohort.
//
// Bit-exactness contract: per device, identical bits to DeviceInstance on
// the same scenario. The pieces that make that hold:
//   * the cohort kernel is bit-identical to the scalar fast path per lane
//     (tests/platform/test_cohort_day.cpp),
//   * the outcome fold and the pick-drawing RNG consumption are the exact
//     functions DeviceInstance uses (device_instance.cpp),
//   * each device's RNG draw order is preserved — lux factor for day d, then
//     that day's picks, then day d+1 — because days are staged in that order
//     per lane, and lanes' streams are independent,
//   * classification is the same label-table gather (tally_picks).
//
// One runner per worker thread (its buffers and caches are reused across
// chunks and are not thread-safe).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/app.hpp"
#include "fleet/device_instance.hpp"
#include "fleet/fleet_stats.hpp"
#include "fleet/scenario.hpp"
#include "platform/cohort_day.hpp"

namespace iw::fleet {

class CohortRunner {
 public:
  /// `app` may be null (energy/duty-cycle simulation only); when set it must
  /// outlive the runner.
  explicit CohortRunner(const core::StressDetectionApp* app = nullptr);

  /// Simulates every scenario for its full day count (all lanes advance in
  /// lockstep, day by day) and adds each device's outcome to `stats` in
  /// scenario order.
  void run(std::span<const Scenario> scenarios, FleetStats& stats);

 private:
  const platform::DetectionPolicy* policy_for(const Scenario& scenario);

  const core::StressDetectionApp* app_;

  /// Every device uses the same calibrated physics, so sharing one instance
  /// is bit-identical to each device fitting its own.
  hv::DualSourceHarvester harvester_ = hv::DualSourceHarvester::calibrated();
  platform::CohortDayState cohort_;

  /// Scheduling policies, pooled by (kind, period): make_policy derives its
  /// parameters from nothing else, and the policies are stateless const
  /// objects, so lanes sharing one is bit-identical to each owning one.
  struct PooledPolicy {
    PolicyKind kind;
    double period_s;
    std::unique_ptr<platform::DetectionPolicy> policy;
  };
  std::vector<PooledPolicy> policies_;

  std::array<std::vector<std::size_t>, 3> windows_by_level_;

  // Per-lane state, parallel to the scenario span; buffers reused across runs.
  std::vector<Rng> rngs_;
  std::vector<hv::DayProfile> base_profiles_;
  std::vector<hv::DayProfile> scaled_profiles_;
  std::vector<platform::DeviceConfig> configs_;
  std::vector<platform::DaySimulationResult> results_;
  std::vector<const platform::DetectionPolicy*> lane_policy_;
  std::vector<DeviceOutcome> outcomes_;
  std::vector<double> socs_;
  std::vector<platform::CohortMember> members_;
  std::vector<std::size_t> active_;
  std::vector<std::size_t> lane_picks_;
};

}  // namespace iw::fleet
