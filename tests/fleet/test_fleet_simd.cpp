// Fleet-level SIMD tier parity (DESIGN.md §15): the fleet runner's
// per-device rows must serialize to the engine oracle's bytes at every
// dispatch tier and every thread count — the SIMD kernels sit inside the
// cohort day kernel, which carries a bit-exactness contract, so the full
// FleetStats (per-device outcome rows included) is the sharpest observable.
// The pack counters of one product-sized shard hold each vector width to
// floors on how full its vectors run.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "fleet/longitudinal/runner.hpp"
#include "fleet/scenario.hpp"
#include "fleet_fixtures.hpp"

namespace iw::fleet {
namespace {

using test::population;
using test::runner_rows;

/// Tier-off plus every vector tier this build and host can run.
std::vector<simd::Tier> all_tiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier tier :
       {simd::Tier::kOff, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_usable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

struct TierGuard {
  ~TierGuard() { simd::clear_override(); }
};

TEST(FleetSimd, StatsByteIdenticalAcrossTiersAndThreads) {
  const std::string reference =
      run_per_device_oracle(2020, 96, 2, nullptr, DayDriver::kEngine).serialize();
  TierGuard guard;
  for (const int threads : {1, 2, 8}) {
    // Shards of at most 32 force several cohorts per run, including
    // mixed-policy packs at cohort boundaries.
    const LongitudinalConfig config = population(96, 2020, 2, threads, 32);
    for (const simd::Tier tier : all_tiers()) {
      simd::override_tier(tier);
      EXPECT_EQ(reference, runner_rows(config))
          << "threads " << threads << " tier " << simd::tier_name(tier);
    }
  }
}

TEST(FleetSimd, TiersAgreeWithSharedAppClassification) {
  // With a shared app each simulated day also draws classification picks
  // from the device RNG streams, so a tier that perturbed a day result
  // would show in the class counts too.
  const core::StressDetectionApp& app = test::tiny_app();
  const std::string reference =
      run_per_device_oracle(2020, 48, 1, &app, DayDriver::kEngine).serialize();
  LongitudinalConfig config = population(48, 2020, 1, 1, 16);
  config.app = &app;

  TierGuard guard;
  for (const simd::Tier tier : all_tiers()) {
    simd::override_tier(tier);
    EXPECT_EQ(reference, runner_rows(config)) << "tier " << simd::tier_name(tier);
  }
}

/// Day 1 of devices [0, 1250) of the seed-7 population — one shard of
/// iw_fleetd's 20k-device, 4-thread partition (trace off, as in the
/// product) — under `tier`; returns the cohort's pack counters.
platform::CohortPackStats sampled_shard_pack_stats(simd::Tier tier) {
  std::vector<Scenario> scenarios;
  for (std::uint64_t id = 0; id < 1250; ++id) {
    scenarios.push_back(sample_scenario(7, id));
  }
  TierGuard guard;
  simd::override_tier(tier);
  ShardSimulator shard;
  shard.begin(std::move(scenarios));
  shard.step_day();
  return shard.cohort().pack_stats();
}

/// Floors on the due rounds' lane-slot utilisation and the share of
/// pack-ticks that skip the charge arithmetic. The cohort sort clusters
/// lanes by profile shape and starting SoC, so same-archetype packs run
/// fuller energy-neutral rounds and whole night packs skip the charge.
/// Sorting by (policy kind, period) alone read 0.751 / 13.1% at W = 4 and
/// 0.698 / 6.0% at W = 8 on this shard; with shape and SoC in the key,
/// 0.874 / 31.9% and 0.807 / 29.1%.
void expect_pack_floors(simd::Tier tier, double min_utilisation,
                        double min_zero_charge) {
  const platform::CohortPackStats stats = sampled_shard_pack_stats(tier);
  EXPECT_GT(stats.due_rounds, 0u);
  EXPECT_GE(stats.round_utilisation(), min_utilisation)
      << stats.due_lane_attempts << " attempts in " << stats.due_lane_slots
      << " slots";
  EXPECT_GE(stats.zero_charge_share(), min_zero_charge)
      << stats.zero_charge_pack_ticks << " of " << stats.pack_ticks;
}

TEST(FleetSimd, Avx2PacksRunFullOnSampledShard) {
  if (!simd::tier_usable(simd::Tier::kAvx2)) {
    GTEST_SKIP() << "avx2 tier not usable in this build/host";
  }
  expect_pack_floors(simd::Tier::kAvx2, 0.85, 0.25);
}

TEST(FleetSimd, Avx512PacksRunFullOnSampledShard) {
  if (!simd::tier_usable(simd::Tier::kAvx512)) {
    GTEST_SKIP() << "avx512 tier not usable in this build/host";
  }
  expect_pack_floors(simd::Tier::kAvx512, 0.78, 0.25);
}

}  // namespace
}  // namespace iw::fleet
