// Concurrent multi-device fleet simulation.
//
// Shards a fleet of virtual devices across a worker-thread pool via a chunked
// work queue (an atomic chunk cursor; each worker claims the next chunk of
// device ids when it runs dry). Hard invariant: for a fixed FleetConfig the
// result is bit-identical regardless of thread count —
//   * every device's randomness is an RNG substream of (fleet seed, device
//     id), so it cannot observe scheduling;
//   * devices share no mutable state (the optional StressDetectionApp is
//     read-only);
//   * per-chunk FleetStats shards are merged in chunk-index order after the
//     pool joins, so the reduction order is fixed too.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/app.hpp"
#include "fleet/fleet_stats.hpp"
#include "fleet/scenario.hpp"

namespace iw::fleet {

struct FleetConfig {
  std::size_t num_devices = 256;
  std::uint64_t fleet_seed = 0x1f2e2020ULL;
  /// Worker threads; 1 runs inline on the calling thread.
  int threads = 1;
  /// Simulated days per device.
  int days = 1;
  /// Devices per work-queue chunk (load-balancing granularity). In cohort
  /// mode a chunk is also one lockstep cohort: larger chunks give the day
  /// kernel longer same-policy, same-period lane runs to sort into full SIMD
  /// packs, which is where the vector tier's throughput comes from. 256
  /// balances that against load-balancing granularity. Chunking is a work
  /// partition only — per-device results never depend on it.
  std::size_t chunk_size = 256;
  /// Optional shared stress-detection app (const access only). When set,
  /// completed detections are classified through its deployed fixed-point
  /// network. Must outlive the run.
  const core::StressDetectionApp* app = nullptr;
  /// Simulate each device-day with the allocation-free segment integrator
  /// (platform/fast_day.hpp) instead of the discrete-event engine. Bit-exact
  /// with the engine path, so results do not change — only throughput. Off
  /// replays the pre-fast-path fleet loop exactly (engine driver plus its
  /// always-on trace recording), kept as the oracle for regression tests and
  /// as the baseline for the throughput benchmark.
  bool fast_day = true;
  /// Advance each chunk of devices as one lockstep cohort through the
  /// structure-of-arrays day kernel (platform/cohort_day.hpp): segment
  /// tables, the detection-gate window and policy objects are shared across
  /// the cohort. Bit-exact with the per-device loop, so results do
  /// not change — only throughput. Only applies when `fast_day` is on
  /// (turning fast_day off selects the engine oracle regardless); off falls
  /// back to the per-device scalar fast path, kept for regression tests and
  /// as the baseline for the cohort throughput benchmark.
  bool cohort_day = true;
  /// Retain one DeviceOutcome row per device in the result's FleetStats (see
  /// FleetStats::set_record_outcomes). On (the default) keeps today's full
  /// per-device table — byte-identical output to a build without the toggle.
  /// Off folds each device into running counters and drops the row, making
  /// the aggregate O(1) in fleet size (percentile summaries read as zero).
  bool record_outcomes = true;
};

struct FleetResult {
  FleetStats stats;
  std::size_t devices = 0;
  int threads_used = 1;
  double wall_s = 0.0;
  double devices_per_sec = 0.0;
  /// devices * simulated days per wall-clock second — the fleet throughput
  /// metric that is comparable across configs with different day counts.
  double device_days_per_sec = 0.0;
};

class FleetEngine {
 public:
  explicit FleetEngine(FleetConfig config);

  const FleetConfig& config() const { return config_; }

  /// Simulates the whole fleet and reduces the shards. Thread-safe to call
  /// from one thread at a time.
  FleetResult run() const;

 private:
  FleetConfig config_;
};

}  // namespace iw::fleet
