// Per-device fleet scenarios: who wears the bracelet and where.
//
// A fleet run simulates many InfiniWolf devices, and N copies of one trace
// would tell us nothing about population behaviour (SELF-CARE shows per-wearer
// context changes stress-detection behaviour). A Scenario captures one
// wearer's world — daily light exposure, body/ambient temperatures for the
// TEG, duty cycle, scheduling policy, stress propensity — and is sampled
// deterministically from (fleet seed, device id) so that a device's entire
// simulation is reproducible independent of which worker thread runs it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "harvest/harvester.hpp"
#include "platform/scheduler.hpp"

namespace iw::fleet {

/// Wearer archetypes; each maps to a distinct 24 h environment structure.
enum class WearerProfile {
  kOfficeWorker = 0,  // commute + 9 h desk light
  kOutdoorWorker = 1, // long daylight exposure, wind on the TEG
  kAthlete = 2,       // office day plus an outdoor training block
  kNightShift = 3,    // inverted schedule, artificial light at night
  kHomebody = 4,      // dim indoor light most of the day
};
inline constexpr int kNumWearerProfiles = 5;
const char* to_string(WearerProfile profile);

/// Which detection-scheduling policy the device firmware runs.
enum class PolicyKind {
  kFixedRate = 0,
  kSocProportional = 1,
  kEnergyNeutral = 2,
};
inline constexpr int kNumPolicyKinds = 3;
const char* to_string(PolicyKind kind);

/// Everything that distinguishes one virtual device from another.
struct Scenario {
  std::uint64_t device_id = 0;
  /// Seed for all in-device randomness (day-to-day weather, window sampling).
  std::uint64_t rng_seed = 0;

  WearerProfile profile = WearerProfile::kOfficeWorker;
  PolicyKind policy = PolicyKind::kFixedRate;

  /// Wearer/venue brightness multiplier applied to the profile's base lux.
  double lux_scale = 1.0;
  /// Body and indoor ambient temperature (drive the TEG ΔT).
  double skin_c = 32.0;
  double ambient_indoor_c = 22.0;
  /// Day-to-day weather variation: each day's light is scaled by
  /// exp(N(0, lux_sigma_day)).
  double lux_sigma_day = 0.3;

  /// Duty cycle: fixed-rate period, and the seed interval for the adaptive
  /// policies.
  double detection_period_s = 60.0;
  double initial_soc = 0.5;
  int days = 1;

  /// Wearer stress propensity: probability that a detection window is
  /// calm / medium / high stress. Sums to 1.
  std::array<double, 3> stress_mix{0.6, 0.3, 0.1};
};

/// Deterministically samples device `device_id`'s scenario from the fleet
/// seed. Uses an RNG substream keyed by the device id, so the result depends
/// only on (fleet_seed, device_id) — never on sampling order or thread
/// scheduling.
Scenario sample_scenario(std::uint64_t fleet_seed, std::uint64_t device_id);

/// Expands a scenario into its wearer's 24 h environment profile.
hv::DayProfile build_day_profile(const Scenario& scenario);

/// Same expansion into a caller-owned buffer whose capacity is reused across
/// devices (ShardSimulator and DeviceScratch each keep one).
void build_day_profile_into(const Scenario& scenario, hv::DayProfile& out);

/// Instantiates the scenario's scheduling policy.
std::unique_ptr<platform::DetectionPolicy> make_policy(const Scenario& scenario);

}  // namespace iw::fleet
