// Fleet-level SIMD tier parity (DESIGN.md §15): a FleetEngine run must
// serialize to the same bytes at every dispatch tier and every thread count —
// the SIMD kernels sit inside the cohort day kernel, which carries a
// bit-exactness contract, so the full
// FleetStats (per-device outcome rows included) is the sharpest observable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/simd.hpp"
#include "core/app.hpp"
#include "fleet/fleet_engine.hpp"

namespace iw::fleet {
namespace {

std::vector<simd::Tier> all_tiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kOff};
  for (simd::Tier t :
       {simd::Tier::kArray, simd::Tier::kSse2, simd::Tier::kAvx2}) {
    if (simd::tier_usable(t)) tiers.push_back(t);
  }
  return tiers;
}

struct TierGuard {
  ~TierGuard() { simd::clear_override(); }
};

TEST(FleetSimd, StatsByteIdenticalAcrossTiersAndThreads) {
  FleetConfig config;
  config.num_devices = 96;
  config.fleet_seed = 2020;
  config.days = 2;
  // Small chunks force several cohorts per run, including mixed-policy packs
  // at cohort boundaries.
  config.chunk_size = 32;

  TierGuard guard;
  simd::override_tier(simd::Tier::kOff);
  config.threads = 1;
  const std::string reference = FleetEngine(config).run().stats.serialize();
  for (const int threads : {1, 2, 8}) {
    config.threads = threads;
    for (const simd::Tier tier : all_tiers()) {
      simd::override_tier(tier);
      const std::string got = FleetEngine(config).run().stats.serialize();
      EXPECT_EQ(reference, got)
          << "threads " << threads << " tier " << simd::tier_name(tier);
    }
  }
}

TEST(FleetSimd, TiersAgreeWithSharedAppClassification) {
  // With a shared app each simulated day also draws classification picks
  // from the device RNG streams, so a tier that perturbed a day result
  // would show in the class counts too.
  core::AppConfig app_config;
  app_config.dataset.subjects = 2;
  app_config.dataset.minutes_per_level = 2.0;
  app_config.training.max_epochs = 40;
  const core::StressDetectionApp app =
      core::StressDetectionApp::build(app_config);

  FleetConfig config;
  config.num_devices = 48;
  config.fleet_seed = 2020;
  config.days = 1;
  config.chunk_size = 16;
  config.threads = 1;
  config.app = &app;

  TierGuard guard;
  simd::override_tier(simd::Tier::kOff);
  const std::string reference = FleetEngine(config).run().stats.serialize();
  for (const simd::Tier tier : all_tiers()) {
    simd::override_tier(tier);
    const std::string got = FleetEngine(config).run().stats.serialize();
    EXPECT_EQ(reference, got) << "tier " << simd::tier_name(tier);
  }
}

}  // namespace
}  // namespace iw::fleet
