// Mergeable fleet-wide aggregate statistics.
//
// Each shard accumulates the outcomes of the devices it simulated into its
// own FleetStats; the runner then merges shards in a fixed order. Every
// derived quantity (percentiles, fractions, totals) is computed from the
// per-device outcome table sorted by device id, so the aggregate — down to
// the last bit of every double — is independent of how devices were
// distributed across threads.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/device_instance.hpp"

namespace iw::fleet {

class FleetStats {
 public:
  /// Records one finished device.
  void add(const DeviceOutcome& outcome);

  /// Folds another shard's devices into this one.
  void merge(const FleetStats& other);

  std::size_t device_count() const { return outcomes_.size(); }

  /// Per-device outcome table, sorted by device id.
  std::vector<DeviceOutcome> outcome_table() const;

  struct Percentiles {
    double p5 = 0.0, p25 = 0.0, p50 = 0.0, p75 = 0.0, p95 = 0.0;
  };

  struct Summary {
    std::size_t devices = 0;
    std::uint64_t detections_attempted = 0;
    std::uint64_t detections_completed = 0;
    std::uint64_t detections_skipped = 0;
    double harvested_j = 0.0;
    double consumed_j = 0.0;
    double fraction_self_sustaining = 0.0;
    std::array<std::uint64_t, 3> class_counts{};
    std::uint64_t classified = 0;
    Percentiles final_soc;
    Percentiles min_soc;
    Percentiles detections_per_min;
    Percentiles intake_uw;  // mean harvest intake in microwatts
    /// Device counts per wearer profile / policy kind.
    std::array<std::size_t, kNumWearerProfiles> per_profile{};
    std::array<std::size_t, kNumPolicyKinds> per_policy{};
  };

  /// Fleet-wide aggregate, deterministic for a given device set.
  Summary summarize() const;

  /// Canonical text form (summary plus the full outcome table). Two fleet
  /// runs agree bit-for-bit iff their serializations are byte-identical —
  /// this is what the thread-count-invariance tests compare.
  std::string serialize() const;

 private:
  std::vector<DeviceOutcome> outcomes_;
};

/// Day driver for run_per_device_oracle: the discrete-event engine (with the
/// trace recording the fleet loop always paid for) or the fast-path
/// segment integrator. Both are bit-identical per device.
enum class DayDriver { kEngine, kFast };

/// The per-device reference fleet: devices [0, num_devices) of `fleet_seed`,
/// each run alone through DeviceInstance for `days` days, serially, rows
/// retained. Of ShardSimulator (the production day loop) it shares only the
/// per-day helpers (accumulate_day_outcome, draw_day_picks, tally_picks), not
/// its lane state, cohort kernel or shard partition: it is the oracle that
/// tests and the throughput bench's cross-checks compare the runner against.
/// `app` may be null.
FleetStats run_per_device_oracle(std::uint64_t fleet_seed, std::size_t num_devices,
                                 int days, const core::StressDetectionApp* app,
                                 DayDriver driver);

}  // namespace iw::fleet
