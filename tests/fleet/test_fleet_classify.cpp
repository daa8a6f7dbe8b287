// Fleet classification is a gather from the app's precomputed test-set
// labels. These digests were recorded from the earlier build that ran every
// pick through the batch inference engine, for a 64-device, 3-day population
// with the small iw_fleetd --app classifier. Matching them at 1/2/8 threads
// on the fleet runner (its per-device rows and its streamed aggregates) and
// on the per-device loop with both day drivers pins the gather to the
// inference it replaced.
#include <gtest/gtest.h>

#include <cstdint>

#include "fleet_fixtures.hpp"

namespace iw::fleet {
namespace {

using test::fnv1a;
using test::tiny_app;

constexpr std::uint64_t kFleetStatsDigest = 0x29ee079d5c596cc5ULL;
constexpr std::uint64_t kLongitudinalStatsDigest = 0x7503c5b180e0be40ULL;

LongitudinalConfig app_fleet(int threads) {
  LongitudinalConfig config = test::population(64, 2020, 3, threads);
  config.app = &tiny_app();
  return config;
}

TEST(FleetClassify, CohortPathMatchesPinnedDigest) {
  for (int threads : {1, 2, 8}) {
    LongitudinalConfig config = app_fleet(threads);
    config.record_outcomes = true;
    const FleetStats rows = LongitudinalRunner(config).run().outcomes;
    EXPECT_EQ(fnv1a(rows.serialize()), kFleetStatsDigest) << threads << " threads";
    EXPECT_EQ(rows.summarize().classified, 64u * 3u * 8u);
  }
}

TEST(FleetClassify, PerDeviceLoopMatchesPinnedDigest) {
  for (DayDriver driver : {DayDriver::kEngine, DayDriver::kFast}) {
    EXPECT_EQ(fnv1a(run_per_device_oracle(2020, 64, 3, &tiny_app(), driver)
                        .serialize()),
              kFleetStatsDigest);
  }
}

TEST(FleetClassify, LongitudinalRunnerMatchesPinnedDigest) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(fnv1a(LongitudinalRunner(app_fleet(threads)).run().stats.serialize()),
              kLongitudinalStatsDigest)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace iw::fleet
