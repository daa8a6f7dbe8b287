// Longitudinal fleet service: checkpointable multi-month populations.
//
// Scales the fleet from "N devices x 1 day, fully materialized" to "millions
// of devices x months" by combining three pieces:
//
//   * Sharded generation — the population [first_device, first_device +
//     num_devices) is cut into contiguous, equal shards (plan_shards); each shard's scenarios are
//     re-sampled on demand from Rng::substream(fleet_seed, device_id), so any
//     shard is reproducible in isolation and no per-device state exists
//     outside the shard currently being simulated. Peak memory is O(shard),
//     never O(population).
//   * Multi-day lockstep advance — a shard's devices step day-by-day through
//     the cohort day kernel (platform::CohortDayState), so the per-shard
//     setup (scenario sampling, policy pooling, gate/shape caches) amortizes
//     over every simulated day, not just one.
//   * Streaming aggregation — results fold into LongitudinalStats (fixed-bin
//     histograms + exact integer counters per day x archetype), whose merge
//     is exactly commutative: aggregates are byte-identical across shard
//     order, thread count, and checkpoint/resume splits.
//
// Checkpointing cuts the run at a day boundary: every device's cross-day
// state (SoC bits, RNG cursor, outcome accumulators — see DeviceCheckpoint)
// plus the aggregates so far go into one shard-addressable file. Resuming
// replays the exact setup an uninterrupted run would perform on that day,
// so checkpoint -> resume is bit-identical to never having stopped.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/app.hpp"
#include "fleet/device_instance.hpp"
#include "fleet/fleet_stats.hpp"
#include "fleet/longitudinal/checkpoint.hpp"
#include "fleet/longitudinal/long_stats.hpp"
#include "fleet/scenario.hpp"
#include "nn/batch.hpp"  // part of this header's interface for shard-loop replays
#include "platform/cohort_day.hpp"

namespace iw::fleet {

struct LongitudinalConfig {
  /// Population: devices [first_device, first_device + num_devices), each
  /// sampled from (fleet_seed, device_id). first_device lets a sub-population
  /// be simulated in isolation — the same devices produce the same bits they
  /// would inside the full population (the shard-isolation property).
  std::uint64_t num_devices = 1000;
  std::uint64_t first_device = 0;
  std::uint64_t fleet_seed = 0x1f2e2020ULL;
  /// Simulated days per device.
  int days = 30;
  /// Cap on the devices simulated together per shard — the memory knob. The
  /// runner cuts the population into equal shards of at most this size,
  /// about four per worker (see plan_shards); LongitudinalResult reports the
  /// partition it used. Each worker holds one shard's lanes at a time, so
  /// peak memory grows with workers x shard size; below about 600 lanes the
  /// cohort kernel's packs lose coherence and a day gets slower.
  std::size_t shard_size = 1024;
  /// Worker threads; 1 runs inline on the calling thread.
  int threads = 1;
  /// SoC histogram resolution of the streamed aggregates.
  int soc_bins = LongitudinalStats::kDefaultSocBins;
  /// Optional shared stress-detection app (const access only; must outlive
  /// the run). When set, completed detections classify through its deployed
  /// fixed-point network's precomputed test-set labels.
  const core::StressDetectionApp* app = nullptr;
  /// Retain one DeviceOutcome row per device in LongitudinalResult::outcomes
  /// (O(population) memory — for oracle comparisons and small runs only; the
  /// streamed LongitudinalStats is the scalable product).
  bool record_outcomes = false;
  /// Non-empty: resume from this checkpoint file. Its header must match the
  /// population spec above (seed, range, days, soc_bins) exactly.
  std::string resume_path;
  /// Non-empty: write a checkpoint at the end of day `checkpoint_day` and
  /// stop there (resume later to continue). Requires 0 < checkpoint_day <=
  /// days, checkpoint_day greater than a resumed file's day, and a path that
  /// is not the resume file.
  std::string checkpoint_path;
  int checkpoint_day = 0;
};

struct LongitudinalResult {
  LongitudinalStats stats;
  /// Per-device rows; empty unless LongitudinalConfig::record_outcomes.
  FleetStats outcomes;
  std::size_t devices = 0;
  /// Days already banked by the resumed checkpoint (0 for a fresh run) and
  /// the day this run stopped at (== days, or checkpoint_day).
  int start_day = 0;
  int end_day = 0;
  int threads_used = 1;
  /// The partition actually used (plan_shards of the config).
  std::uint64_t shard_size = 0;
  std::uint64_t shards = 0;
  double wall_s = 0.0;
  /// Device-days simulated by *this* run (excludes resumed days) per second.
  double device_days_per_sec = 0.0;
};

/// Multi-day lockstep simulator for one shard of explicit scenarios: the
/// building block under LongitudinalRunner, public so tests and tools can
/// drive crafted populations (e.g. battery-empty/full edge states) through
/// the exact production day loop. Per device, outcomes are bit-identical to
/// the per-device loop (run_per_device_oracle) on the same scenarios.
///
/// One simulator per worker thread; buffers and caches are reused across
/// begin()/resume() cycles and are not thread-safe.
class ShardSimulator {
 public:
  /// `app` may be null (energy/duty-cycle simulation only); when set it must
  /// outlive the simulator.
  explicit ShardSimulator(const core::StressDetectionApp* app = nullptr);

  /// Binds a fresh shard at day 0, taking ownership of its scenarios.
  void begin(std::vector<Scenario> scenarios);

  /// Binds a shard restored from a checkpoint record stream: one
  /// kDeviceCheckpointBytes record per scenario, in scenario order, decoded
  /// straight into the lanes. Device ids, RNG seeds and day counts are
  /// validated against the scenarios; a short or torn stream throws.
  void resume(std::vector<Scenario> scenarios,
              std::span<const std::uint8_t> records);

  /// Advances every unfinished lane one day; when `sink` is non-null, records
  /// each advanced device's end-of-day state into it. Returns false once all
  /// lanes have reached their scenario's day count.
  bool step_day(LongitudinalStats* sink = nullptr);

  /// Days completed (the lockstep clock; lanes with fewer scenario days stop
  /// early and keep their last state).
  int day() const { return day_; }
  int max_days() const { return max_days_; }
  bool done() const { return day_ >= max_days_; }
  std::size_t size() const { return scenarios_.size(); }

  /// Running outcome accumulators, parallel to the bound scenarios.
  std::span<const DeviceOutcome> outcomes() const;

  /// Encodes every lane's cross-day state at the current day boundary into
  /// `records`, which must hold exactly size() x kDeviceCheckpointBytes.
  void save(std::span<std::uint8_t> records) const;

  /// The shard's cohort day kernel (its cache sizes and pack counters).
  const platform::CohortDayState& cohort() const { return cohort_; }

 private:
  const platform::DetectionPolicy* policy_for(const Scenario& scenario);

  const core::StressDetectionApp* app_;

  /// Every device uses the same calibrated physics, so sharing one instance
  /// is bit-identical to each device fitting its own.
  hv::DualSourceHarvester harvester_ = hv::DualSourceHarvester::calibrated();
  platform::CohortDayState cohort_;

  /// Scheduling policies pooled by (kind, period) — stateless const objects,
  /// so lanes sharing one is bit-identical to each owning one.
  struct PooledPolicy {
    PolicyKind kind;
    double period_s;
    std::unique_ptr<platform::DetectionPolicy> policy;
  };
  std::vector<PooledPolicy> policies_;

  std::array<std::vector<std::size_t>, 3> windows_by_level_;

  /// A lane's base profile is a pure function of its scenario, so each day
  /// rebuilds it here before scaling it into the lane's own profile.
  hv::DayProfile base_profile_;

  // Per-lane state, parallel to scenarios_; buffers reused across shards.
  std::vector<Scenario> scenarios_;
  std::vector<Rng> rngs_;
  std::vector<hv::DayProfile> scaled_profiles_;
  std::vector<platform::DeviceConfig> configs_;
  std::vector<platform::DaySimulationResult> results_;
  std::vector<const platform::DetectionPolicy*> lane_policy_;
  std::vector<DeviceOutcome> outcomes_;
  std::vector<double> socs_;
  std::vector<platform::CohortMember> members_;
  std::vector<std::size_t> active_;
  std::vector<std::size_t> lane_picks_;

  int day_ = 0;
  int max_days_ = 0;
};

/// How LongitudinalRunner cuts a population of `num_devices` into
/// contiguous shards: shard s covers device offsets [s * shard_size,
/// min(num_devices, (s + 1) * shard_size)).
struct ShardPlan {
  std::uint64_t shard_size = 0;
  std::uint64_t shards = 0;
  /// Worker threads: min(threads, num_devices).
  int workers = 0;
};

/// The whole-round partition. The shard count is the smallest multiple of
/// 4 x workers that keeps shards within `max_shard_size`; shards are then
/// made equal (ceil(num_devices / count)) and the count recomputed. Equal
/// shards, about four claims per worker, so no worker runs a last shard
/// alone. Results never depend on the partition.
ShardPlan plan_shards(std::uint64_t num_devices, int threads,
                      std::uint64_t max_shard_size);

class LongitudinalRunner {
 public:
  explicit LongitudinalRunner(LongitudinalConfig config);

  const LongitudinalConfig& config() const { return config_; }

  /// Simulates the population (or the resumed remainder) and reduces the
  /// streamed aggregates. Thread-safe to call from one thread at a time.
  LongitudinalResult run() const;

 private:
  LongitudinalConfig config_;
};

}  // namespace iw::fleet
