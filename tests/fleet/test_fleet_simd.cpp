// Fleet-level SIMD tier parity (DESIGN.md §15): the fleet runner's
// per-device rows must serialize to the engine oracle's bytes at every
// dispatch tier and every thread count — the SIMD kernels sit inside the
// cohort day kernel, which carries a bit-exactness contract, so the full
// FleetStats (per-device outcome rows included) is the sharpest observable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/simd.hpp"
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

}  // namespace
}  // namespace iw::fleet
