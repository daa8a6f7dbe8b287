// Structure-of-arrays cohort day kernel: many device-days in lockstep.
//
// The scalar fast path (fast_day.hpp) replays one device-day at a time, so
// every day re-derives the detection-gate window (~30 OCV-curve
// integrations) and every harvest tick re-runs the fmod-and-scan segment
// lookup — per-device fixed costs that dominate fleet-scale runs where
// thousands of devices share a handful of profile shapes and one battery
// spec. The cohort kernel advances N devices together through the two-stream
// merge loop (harvest ticks / detection attempts / policy intervals) and
// hoists everything shape-shared out of the per-device path:
//
//   * One tick→segment table per profile *shape* (segment durations + tick
//     grid), computed once and shared across every device and simulated day
//     on that shape — each device's per-tick segment lookup becomes an array
//     read feeding the same per-segment intake cache the scalar path keeps.
//   * One detection-gate window per (battery spec, detection cost) pair —
//     the bisection runs once per cohort lifetime instead of once per
//     device-day.
//   * Lanes sharing a tick grid advance tick-by-tick in lockstep: the outer
//     loop walks the shared tick times, the inner loop sweeps the lane
//     arrays, draining each lane's due detections (engine event order,
//     including FIFO tie-breaking) before its tick fires.
//
// Bit-exactness contract: per device, every floating-point operation is the
// same operation in the same order as the scalar fast path (and transitively
// the discrete-event engine, the oracle) — the cohort only re-times *when*
// the shared day_kernel hooks fire, never what they compute. Pinned by
// tests/platform/test_cohort_day.cpp.
//
// All per-run buffers and both caches live in the CohortDayState and are
// reused across run_day calls, so a warmed-up cohort allocates nothing. One
// CohortDayState per worker thread; it is not thread-safe.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "harvest/harvester.hpp"
#include "platform/day_kernel.hpp"
#include "platform/device.hpp"

namespace iw::platform {

class DetectionPolicy;  // scheduler.hpp

/// One device-day in a cohort. All pointers must outlive run_day; `result`
/// is overwritten (the cohort equivalent of the scalar paths returning a
/// fresh DaySimulationResult). Members must not share `result` slots.
struct CohortMember {
  const DeviceConfig* config = nullptr;
  const hv::DualSourceHarvester* harvester = nullptr;
  const hv::DayProfile* profile = nullptr;
  /// Null: the fixed periodic detection stream (simulate_day_fast).
  /// Non-null: the policy-scheduled stream (simulate_day_fast_with_policy).
  const DetectionPolicy* policy = nullptr;
  DaySimulationResult* result = nullptr;
};

class CohortDayState {
 public:
  CohortDayState() = default;

  /// Simulates one day for every member, bit-identical per member to the
  /// scalar `simulate_day_fast[_with_policy]` on the same inputs. Members
  /// may mix configs, profiles, policies and harvesters freely; lanes
  /// sharing a tick grid (harvest tick, horizon) advance in lockstep.
  void run_day(std::span<const CohortMember> members);

  /// Pre-sizes every per-lane array for cohorts of up to `n` members, so a
  /// long-running driver (the longitudinal shard runner advances the same
  /// cohort for months of simulated days) pays the growth once up front
  /// instead of across its first day's run_day calls. Purely an allocation
  /// hint: run_day grows the arrays on demand regardless.
  void reserve_lanes(std::size_t n);

  /// Cache introspection (tests / diagnostics).
  std::size_t shape_cache_size() const { return shapes_.size(); }
  std::size_t gate_cache_size() const { return gate_cache_.size(); }

  /// SIMD pack counters summed over every run_day of this cohort (all zero
  /// when the SIMD tier is off); see CohortPackStats.
  const CohortPackStats& pack_stats() const { return pack_stats_; }

 private:
  /// Tick schedule of one profile shape: the engine's accumulated tick times
  /// plus the profile segment index each tick samples. Shared by every lane
  /// (and every run_day) whose profile has these segment durations on this
  /// tick grid.
  struct Shape {
    double tick_s = 0.0;
    double horizon = 0.0;
    std::vector<double> durations;
    std::vector<double> times;
    std::vector<std::uint32_t> segs;
    /// seg_used[s] != 0 iff some tick samples segment s — the register-path
    /// intake tables only evaluate the harvester on segments the scalar path
    /// would actually visit (zero-length segments are never sampled).
    std::vector<std::uint8_t> seg_used;
  };

  /// Lanes sharing one tick grid, advanced tick-by-tick together.
  struct ClockGroup {
    double tick_s = 0.0;
    double horizon = 0.0;
    const Shape* shape = nullptr;  // any shape of the group: times coincide
    std::vector<std::size_t> lanes;
  };

  /// Index into shapes_ of the profile's shape, added on first sight.
  std::uint32_t shape_for(const hv::DayProfile& profile, double tick_s,
                          double horizon);

  // Shared caches (persist across run_day calls). shape_segments_[s] is
  // shapes_[s]'s segment count, flat for the SIMD kernel.
  std::vector<std::unique_ptr<Shape>> shapes_;
  std::vector<std::uint32_t> shape_segments_;
  detail::DetectionGateCache gate_cache_;

  // Per-lane state, parallel arrays indexed by member position. The physics
  // lane (battery, smoother, intake cache, gate) is the day_kernel's
  // DayState — kept whole so that every floating-point mutation stays inside
  // the kernel's single translation unit — while the merge-loop scheduling
  // state is split into flat arrays for the lockstep sweep.
  std::vector<detail::DayState> lanes_;
  std::vector<const DetectionPolicy*> policy_;
  std::vector<PolicyEval> policy_eval_;
  std::vector<const std::uint32_t*> seg_table_;
  std::vector<std::uint32_t> shape_id_;
  /// Per-lane per-segment harvester intake (NaN-free only on used segments)
  /// plus the register-path eligibility verdict; see run_day.
  std::vector<std::vector<double>> intake_store_;
  std::vector<const double*> intake_table_;
  std::vector<std::uint8_t> reg_ok_;
  std::vector<double> detect_t_;
  std::vector<std::uint64_t> detect_seq_;
  std::vector<std::uint64_t> harvest_seq_;
  std::vector<std::uint64_t> next_seq_;
  std::vector<std::uint8_t> detect_alive_;

  std::vector<ClockGroup> groups_;
  CohortPackStats pack_stats_;
};

}  // namespace iw::platform
