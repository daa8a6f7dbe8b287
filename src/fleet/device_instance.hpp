// One virtual InfiniWolf device in a fleet run.
//
// Bundles a wearer scenario's harvester conditions, battery, scheduling
// policy, and (optionally) the shared stress-detection application behind a
// step/run interface. All randomness comes from the scenario's RNG substream,
// and the shared app is only read through const methods, so a device's
// outcome depends on nothing but its Scenario — the property the fleet
// runner's thread-count-independence rests on. DeviceInstance is not a
// production path: run_per_device_oracle (fleet_stats.hpp) loops it over a
// population as the reference ShardSimulator is checked against.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/app.hpp"
#include "fleet/scenario.hpp"
#include "harvest/harvester.hpp"
#include "platform/device.hpp"

namespace iw::fleet {

/// Everything the fleet aggregates about one finished device.
struct DeviceOutcome {
  std::uint64_t device_id = 0;
  WearerProfile profile = WearerProfile::kOfficeWorker;
  PolicyKind policy = PolicyKind::kFixedRate;
  int days_run = 0;

  std::uint64_t detections_attempted = 0;
  std::uint64_t detections_completed = 0;
  std::uint64_t detections_skipped = 0;  // battery too low

  double harvested_j = 0.0;
  double consumed_j = 0.0;
  double initial_soc = 0.0;
  double final_soc = 0.0;
  double min_soc = 1.0;

  /// Completed detections per simulated minute.
  double detections_per_min = 0.0;
  /// Average harvest intake over the run, in watts.
  double mean_intake_w = 0.0;
  /// Battery never ran low and ended no worse than it started.
  bool self_sustaining = false;

  /// Stress classifications (through the shared app) by predicted level.
  std::array<std::uint64_t, 3> class_counts{};
  std::uint64_t classified = 0;
};

/// Folds one finished day into a device's running outcome: counters, energy
/// totals, SoC extremes, and the derived per-minute rates / self-sustaining
/// flag. Shared by the per-device loop (DeviceInstance) and ShardSimulator
/// so both paths perform the exact same floating-point fold in the same
/// translation unit — part of the fleet's bit-exactness contract.
void accumulate_day_outcome(DeviceOutcome& outcome,
                            const platform::DaySimulationResult& day,
                            int days_run);

/// Buckets a shared app's test-set window indices by true label — the pool
/// detection windows are drawn from. Pure function of the app's test split;
/// ShardSimulator computes it once per worker instead of once per device.
void build_windows_by_level(const core::StressDetectionApp& app,
                            std::array<std::vector<std::size_t>, 3>& buckets);

/// Draws the day's classification window picks (capped) from the wearer's
/// stress mix into `picks` (cleared first). This is the day's entire
/// post-simulation RNG consumption, fixed here so the per-device stream stays
/// identical no matter how (or whether) the picks are later classified.
void draw_day_picks(Rng& rng, const Scenario& scenario,
                    const std::array<std::vector<std::size_t>, 3>& buckets,
                    std::uint64_t completed_today,
                    std::vector<std::size_t>& picks);

/// Counts the day's picks into the outcome by their precomputed deployed
/// label (StressDetectionApp::fixed_test_label). Shared by every day driver;
/// the label of a test row never changes, so this equals classifying each
/// pick through the quantized network.
void tally_picks(const core::StressDetectionApp& app,
                 std::span<const std::size_t> picks, DeviceOutcome& outcome);

/// Reusable state for sequentially simulated devices. run_per_device_oracle
/// keeps one per run so that building and lux-scaling a device's profile
/// stops allocating after the first device, and so the harvester calibration
/// fit — a deterministic nested bisection costing more than an entire
/// simulated device-day — runs once instead of once per device. A scratch
/// must only ever serve one live DeviceInstance at a time.
struct DeviceScratch {
  hv::DayProfile base_profile;
  hv::DayProfile scaled_profile;
  /// Every device uses the same calibrated physics, so sharing one instance
  /// is bit-identical to each device fitting its own.
  hv::DualSourceHarvester harvester = hv::DualSourceHarvester::calibrated();
};

class DeviceInstance {
 public:
  /// `app` may be null (energy/duty-cycle simulation only). When set it must
  /// outlive the instance; it is shared read-only across the whole fleet.
  /// `scratch` optionally supplies shared day-profile buffers; it must
  /// outlive the instance and must not be used concurrently. When null the
  /// device owns its buffers.
  explicit DeviceInstance(Scenario scenario,
                          const core::StressDetectionApp* app = nullptr,
                          DeviceScratch* scratch = nullptr);

  /// Switches day simulation back to the discrete-event engine path, replayed
  /// exactly as the fleet ran it before the fast path existed — including the
  /// always-on trace recording it used to pay for every day. The aggregate
  /// outcome is bit-identical either way (traces never reach FleetStats);
  /// this exists as the oracle for regression tests and as the baseline for
  /// the fast-vs-engine fleet benchmark. Call before the first step_day().
  void set_fast_day(bool enabled) {
    use_fast_day_ = enabled;
    config_.record_trace = !enabled;
  }

  /// Simulates one more day (carrying the battery over). Returns false once
  /// the scenario's day count has been reached.
  bool step_day();

  /// Runs all remaining days.
  void run();

  const Scenario& scenario() const { return scenario_; }
  int days_run() const { return day_; }
  bool done() const { return day_ >= scenario_.days; }

  /// Aggregated outcome so far (fully populated once done()).
  const DeviceOutcome& outcome() const { return outcome_; }

 private:
  void classify_windows(std::uint64_t completed_today);

  /// The scratch (profile buffers + calibrated harvester): the
  /// shared one handed in at construction, or an own lazily built bundle.
  DeviceScratch& scratch() { return *scratch_; }

  hv::DayProfile& base_profile() { return scratch().base_profile; }
  hv::DayProfile& scaled_profile() { return scratch().scaled_profile; }
  const hv::DualSourceHarvester& harvester() { return scratch().harvester; }

  Scenario scenario_;
  const core::StressDetectionApp* app_;
  Rng rng_;
  DeviceScratch* scratch_ = nullptr;
  /// Set (and pointed to by scratch_) only when no shared scratch was given.
  std::unique_ptr<DeviceScratch> own_scratch_;
  platform::DeviceConfig config_;
  std::unique_ptr<platform::DetectionPolicy> policy_;
  /// Test-set window indices of the shared app, bucketed by true label.
  std::array<std::vector<std::size_t>, 3> windows_by_level_;
  bool use_fast_day_ = true;
  /// The day's sampled window indices, reused across days.
  std::vector<std::size_t> picks_;
  double soc_ = 0.5;
  int day_ = 0;
  DeviceOutcome outcome_;
};

}  // namespace iw::fleet
