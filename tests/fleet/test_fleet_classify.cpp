// Fleet classification is a gather from the app's precomputed test-set
// labels. These digests were recorded from the earlier build that ran every
// pick through the batch inference engine, for a 64-device, 3-day population
// with the small iw_fleetd --app classifier. Matching them at 1/2/8 threads,
// on the cohort path, the per-device loop and the longitudinal runner, pins
// the gather to the inference it replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fleet/fleet_engine.hpp"
#include "fleet/longitudinal/runner.hpp"

namespace iw::fleet {
namespace {

constexpr std::uint64_t kFleetStatsDigest = 0x29ee079d5c596cc5ULL;
constexpr std::uint64_t kLongitudinalStatsDigest = 0x7503c5b180e0be40ULL;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

const core::StressDetectionApp& tiny_app() {
  static const core::StressDetectionApp app = [] {
    core::AppConfig app_config;
    app_config.dataset.subjects = 2;
    app_config.dataset.minutes_per_level = 2.0;
    app_config.training.max_epochs = 40;
    return core::StressDetectionApp::build(app_config);
  }();
  return app;
}

FleetConfig app_fleet(int threads) {
  FleetConfig config;
  config.num_devices = 64;
  config.fleet_seed = 2020;
  config.days = 3;
  config.threads = threads;
  config.app = &tiny_app();
  return config;
}

TEST(FleetClassify, CohortPathMatchesPinnedDigest) {
  for (int threads : {1, 2, 8}) {
    const FleetResult result = FleetEngine(app_fleet(threads)).run();
    EXPECT_EQ(fnv1a(result.stats.serialize()), kFleetStatsDigest)
        << threads << " threads";
    EXPECT_EQ(result.stats.summarize().classified, 64u * 3u * 8u);
  }
}

TEST(FleetClassify, PerDeviceLoopMatchesPinnedDigest) {
  for (int threads : {1, 2, 8}) {
    FleetConfig config = app_fleet(threads);
    config.cohort_day = false;
    EXPECT_EQ(fnv1a(FleetEngine(config).run().stats.serialize()), kFleetStatsDigest)
        << threads << " threads";
  }
}

TEST(FleetClassify, LongitudinalRunnerMatchesPinnedDigest) {
  for (int threads : {1, 2, 8}) {
    LongitudinalConfig config;
    config.num_devices = 64;
    config.fleet_seed = 2020;
    config.days = 3;
    config.threads = threads;
    config.app = &tiny_app();
    EXPECT_EQ(fnv1a(LongitudinalRunner(config).run().stats.serialize()),
              kLongitudinalStatsDigest)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace iw::fleet
