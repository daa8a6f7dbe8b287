// Shared physics kernel for one simulated device-day.
//
// Three drivers produce `DaySimulationResult`s: the discrete-event engine
// path in device.cpp (the oracle), the allocation-free scalar fast path in
// fast_day.cpp, and the structure-of-arrays cohort path in cohort_day.cpp.
// Their contract is bit-identical results, which requires every
// floating-point operation to be the *same* operation in the *same* order
// per device. To make that hold by construction, all state mutation lives
// here — one struct, defined in one translation unit (device.cpp) — and the
// drivers only decide *when* each member function fires. A driver must call:
//   * harvest_tick(t) at every harvest tick time the engine would pop — or
//     harvest_tick_env(t, env) when the driver already knows the active
//     profile segment (the cohort path's shared per-shape tick→segment
//     tables), which skips the environment_at lookup but is otherwise the
//     same operation,
//   * attempt_detection(t) at every detection event time,
//   * policy_interval(...) right after an attempt when a policy is active,
//   * finish() once, after the last event,
// in exactly the engine's event order (ties included; see fast_day.cpp).
//
// A DayState is rebindable: the cohort kernel keeps a pool of lanes and
// re-init()s them for each cohort-day, so the per-day setup allocates
// nothing after the pool warms up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harvest/harvester.hpp"
#include "platform/device.hpp"
#include "platform/scheduler.hpp"
#include "power/battery.hpp"

namespace iw::platform {

/// Deterministic counters of the SIMD cohort kernel's packs (W lanes
/// advanced by one vector statement), summed over every block it ran. They
/// depend only on the lanes, their order and the pack width — never on
/// timing — so they show how full the vectors run. Lanes the SIMD tier does
/// not take (tier off, the scalar-ladder tail, the general sweep) add
/// nothing.
struct CohortPackStats {
  /// Pack-days by detection drain mode (see cohort_simd_impl.hpp).
  std::uint64_t lockstep_packs = 0;
  std::uint64_t rounds_packs = 0;
  std::uint64_t scalar_packs = 0;
  /// Pack-days whose lanes share one profile shape, so each tick's intake
  /// loads as one vector instead of a per-lane gather.
  std::uint64_t uniform_packs = 0;
  /// Masked due rounds run by rounds-mode packs, the lane slots they
  /// offered (W per round) and the lane attempts that filled them.
  std::uint64_t due_rounds = 0;
  std::uint64_t due_lane_slots = 0;
  std::uint64_t due_lane_attempts = 0;
  /// Harvest pack-ticks, and those whose charge mask is all zero (every
  /// lane at zero intake or full), which skip the charge arithmetic.
  std::uint64_t pack_ticks = 0;
  std::uint64_t zero_charge_pack_ticks = 0;

  /// Filled share of the due rounds' lane slots (0 without rounds).
  double round_utilisation() const {
    return due_lane_slots == 0 ? 0.0
                               : static_cast<double>(due_lane_attempts) /
                                     static_cast<double>(due_lane_slots);
  }
  /// Share of pack-ticks that skip the charge arithmetic (0 without ticks).
  double zero_charge_share() const {
    return pack_ticks == 0 ? 0.0
                           : static_cast<double>(zero_charge_pack_ticks) /
                                 static_cast<double>(pack_ticks);
  }

  CohortPackStats& operator+=(const CohortPackStats& o) {
    lockstep_packs += o.lockstep_packs;
    rounds_packs += o.rounds_packs;
    scalar_packs += o.scalar_packs;
    uniform_packs += o.uniform_packs;
    due_rounds += o.due_rounds;
    due_lane_slots += o.due_lane_slots;
    due_lane_attempts += o.due_lane_attempts;
    pack_ticks += o.pack_ticks;
    zero_charge_pack_ticks += o.zero_charge_pack_ticks;
    return *this;
  }
};

namespace detail {

/// Windowed SoC threshold pair for the stored-energy detection gate. The
/// attempt gate `stored_energy_j() >= need_j` is a comparison against a
/// monotone function of SoC, so outside a narrow window around the crossing
/// it is decided by comparing SoC alone: above `hi_soc` the battery provably
/// clears the gate, below `lo_soc` it provably does not, and only inside the
/// window is stored_energy_j() evaluated — turning ~10^2 OCV-curve
/// integrations per attempt into one double compare. The default sentinels
/// (lo = -1, hi = 2) force the exact evaluation on every attempt.
struct DetectionGate {
  double lo_soc = -1.0;
  double hi_soc = 2.0;
};

/// Derives the gate window for one (battery spec, detection cost) pair by
/// bisecting the crossing of the monotone stored-energy integral — ~30 probe
/// integrations. Pure: the result depends only on the arguments, which is
/// what lets the cohort kernel compute it once per distinct pair instead of
/// once per device-day (the scalar paths re-derive it per day; both arrive
/// at bit-identical windows because this is the single shared derivation).
DetectionGate compute_detection_gate(const pwr::LipoBattery::Params& battery,
                                     double need_j);

/// Memo table over compute_detection_gate keyed on the exact (capacity,
/// charge efficiency, need_j) values. One per cohort/worker; not thread-safe.
class DetectionGateCache {
 public:
  const DetectionGate& get(const pwr::LipoBattery::Params& battery, double need_j);
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    double capacity_mah;
    double charge_efficiency;
    double need_j;
    DetectionGate gate;
  };
  std::vector<Entry> entries_;
};

/// Index of the profile segment active at time `t` — the same fmod/scan
/// semantics as environment_at (which is implemented on top of it). The
/// cohort kernel uses this to precompute one tick→segment table per profile
/// *shape* (segment durations + tick grid) and share it across every device
/// and every simulated day on that shape.
std::size_t segment_index_at(const hv::DayProfile& profile, double t);

struct DayState;

/// Flat views into the cohort kernel's parallel per-lane arrays for one clock
/// group (lanes sharing a tick grid). `lane_ids` selects the group's lanes;
/// all other per-lane arrays are indexed by those ids. `times` is the group's
/// shared tick schedule and `seg_tables[lane][k]` the profile segment tick k
/// samples on that lane's shape.
struct CohortGroupRefs {
  DayState* lanes = nullptr;
  const std::size_t* lane_ids = nullptr;
  std::size_t num_lanes = 0;
  /// Lanes [0, num_reg_lanes) of lane_ids qualify for the register-resident
  /// day loop (no trace recording, non-negative detection cost and segment
  /// intakes — see cohort_day.cpp); the rest take the general sweep.
  std::size_t num_reg_lanes = 0;
  const double* times = nullptr;
  std::size_t num_ticks = 0;
  const std::uint32_t* const* seg_tables = nullptr;
  /// Per-lane per-segment harvester intake (indexed by the seg_tables entry;
  /// only segments the shape's tick grid samples are populated). The same
  /// pure intake_w evaluation the scalar path caches per segment visit.
  const double* const* intake_tables = nullptr;
  /// Per-lane index of the lane's profile shape (lanes with equal ids share
  /// one seg_tables entry), and the segment count of each shape by index.
  const std::uint32_t* shape_ids = nullptr;
  const std::uint32_t* shape_segments = nullptr;
  const DetectionPolicy* const* policies = nullptr;
  /// Per-lane closed-form snapshots of the built-in policies (kOpaque for
  /// custom ones), so the drain loop dispatches inline instead of virtually.
  const PolicyEval* policy_evals = nullptr;
  double* detect_t = nullptr;
  std::uint64_t* detect_seq = nullptr;
  std::uint64_t* harvest_seq = nullptr;
  std::uint64_t* next_seq = nullptr;
  std::uint8_t* detect_alive = nullptr;
  /// Receives the SIMD blocks' pack counters (required).
  CohortPackStats* pack_stats = nullptr;
};

/// Advances every lane of one clock group through a full day in lockstep:
/// walks the shared tick times, per tick draining each lane's due detections
/// (engine event order, FIFO ties included — see fast_day.cpp) before its
/// tick fires, then drains the detection tails and seals the results. Lives
/// in device.cpp so the per-event hooks and the battery arithmetic inline
/// into one straight-line loop in the kernel's single translation unit.
void run_cohort_group(const CohortGroupRefs& refs);

struct DayState {
  /// Rebindable empty lane; call init() before any event.
  DayState() = default;

  /// Validates the config, derives the horizon, charges the battery to the
  /// initial SoC and seeds the intake smoother from the profile's t=0
  /// environment — the exact setup sequence of the engine path.
  DayState(const DeviceConfig& config, const hv::DualSourceHarvester& harvester,
           const hv::DayProfile& profile, DaySimulationResult& result);

  /// Same setup, as a rebind. When `gate_cache` is non-null the detection
  /// gate window comes from the cache (bit-identical to deriving it locally;
  /// see compute_detection_gate) so repeated days on the same battery spec
  /// and detection cost skip the bisection entirely.
  void init(const DeviceConfig& config, const hv::DualSourceHarvester& harvester,
            const hv::DayProfile& profile, DaySimulationResult& result,
            DetectionGateCache* gate_cache = nullptr);

  /// One charging-integration tick at absolute time `t`: samples the
  /// environment at the middle of the elapsed tick, charges the battery,
  /// applies the sleep drain, updates the intake smoother and the SoC
  /// minimum, and (when enabled) records the trace samples.
  void harvest_tick(double t);

  /// The same tick with the active segment supplied by the driver (must be
  /// the segment environment_at would return for the tick's sample time —
  /// the cohort kernel guarantees this via its shared per-shape tables).
  void harvest_tick_env(double t, const hv::Environment& env);

  /// One detection attempt at time `t`; returns true when it completed.
  bool attempt_detection(double t);

  /// Queries `policy` for the next interval from the current battery and
  /// intake state (validating it), recording it when tracing.
  double policy_interval(const DetectionPolicy& policy, double t);

  /// policy_interval with the virtual call replaced by the policy's inline
  /// snapshot dispatch — bit-identical (see PolicyEval) but inlineable into
  /// the cohort kernel's drain loop.
  double policy_interval_fast(const PolicyEval& eval, const DetectionPolicy& policy,
                              double t);

  /// Seals the result (final SoC).
  void finish();

  const DeviceConfig* config = nullptr;
  const hv::DualSourceHarvester* harvester = nullptr;
  const hv::DayProfile* profile = nullptr;
  double horizon = 0.0;
  pwr::LipoBattery battery;
  double smoothed_intake_w = 0.0;
  DaySimulationResult* result = nullptr;

  /// Energy one detection attempt needs, hoisted out of the per-attempt path.
  double detection_need_j = 0.0;
  /// Load of one attempt (need / duration), hoisted likewise — one division
  /// per day instead of one per attempt, same operands so the same value.
  double detection_power_w = 0.0;
  /// Completion threshold (0.95 * need), hoisted likewise.
  double detection_complete_j = 0.0;
  /// Windowed SoC threshold for the stored-energy gate; see DetectionGate.
  DetectionGate gate;
  /// Per-segment intake cache: environment_at returns a reference into the
  /// (piecewise-constant) profile, so the harvester chain only needs
  /// re-evaluating when the segment — the address — changes.
  const hv::Environment* cached_env = nullptr;
  double cached_intake_w = 0.0;
};

}  // namespace detail
}  // namespace iw::platform
