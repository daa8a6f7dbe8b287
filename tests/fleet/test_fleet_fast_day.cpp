// The per-device oracle's day driver must be invisible in the results: the
// FleetStats serialization (summary + full per-device outcome table, every
// double printed exactly) has to be byte-identical on the discrete-event
// engine and on the fast path, with and without the shared classification
// app. The runner reports its own throughput.
#include <gtest/gtest.h>

#include <string>

#include "fleet_fixtures.hpp"

namespace iw::fleet {
namespace {

TEST(FleetFastDay, ByteIdenticalToEnginePathAcrossThreadCounts) {
  // 48 devices cover all archetypes, policies and duty cycles. The
  // per-device loop is serial; FleetCohort checks the runner against it at
  // 1/2/8 threads.
  const FleetStats engine = run_per_device_oracle(2020, 48, 2, nullptr, DayDriver::kEngine);
  const FleetStats fast = run_per_device_oracle(2020, 48, 2, nullptr, DayDriver::kFast);
  EXPECT_EQ(engine.serialize(), fast.serialize());
}

TEST(FleetFastDay, ByteIdenticalWithSharedApp) {
  // Classification windows are drawn from the device RNG *after* the day
  // simulation, so a fast path that consumed different randomness or produced
  // different detection counts would shift every subsequent draw.
  const core::StressDetectionApp& app = test::tiny_app();
  const FleetStats fast = run_per_device_oracle(2020, 16, 1, &app, DayDriver::kFast);
  EXPECT_EQ(fast.serialize(),
            run_per_device_oracle(2020, 16, 1, &app, DayDriver::kEngine).serialize());
  EXPECT_GT(fast.summarize().classified, 0u);
}

TEST(FleetFastDay, ReportsDeviceDaysPerSec) {
  const LongitudinalResult result = LongitudinalRunner(test::population(4, 2020, 2, 1)).run();
  EXPECT_DOUBLE_EQ(result.device_days_per_sec, 4.0 * 2.0 / result.wall_s);
  EXPECT_GT(result.device_days_per_sec, 0.0);
}

}  // namespace
}  // namespace iw::fleet
