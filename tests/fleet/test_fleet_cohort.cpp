// The cohort day loop must be invisible in the results: the FleetStats
// serialization (summary + full per-device outcome table, every double
// printed exactly) has to be byte-identical between the fleet runner
// (ShardSimulator over the cohort kernel) and the per-device engine-path
// oracle — at any thread count, any cohort (= shard) size, across multi-day
// runs with battery carry-over, and with the shared classification app
// present or absent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet_fixtures.hpp"

namespace iw::fleet {
namespace {

using test::population;
using test::runner_rows;

/// FNV-1a digest of ByteIdenticalWithSharedApp's FleetStats serialization.
constexpr std::uint64_t kSharedAppDigest = 0xd6a09a7445cfbfbdULL;

std::string engine_oracle(std::size_t devices, int days,
                          const core::StressDetectionApp* app = nullptr) {
  return run_per_device_oracle(2020, devices, days, app, DayDriver::kEngine)
      .serialize();
}

TEST(FleetCohort, ByteIdenticalToScalarPathsAcrossThreadCounts) {
  // 48 devices cover all archetypes, policies and duty cycles; shards of at
  // most 4 give 12+ shards, so plenty of interleaving at 8 threads.
  const std::string engine_path = engine_oracle(48, 2);
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(engine_path, runner_rows(population(48, 2020, 2, threads, 4)))
        << "cohort path diverged at " << threads << " threads";
  }
}

TEST(FleetCohort, ByteIdenticalAcrossCohortSizes) {
  // A device's bits must not depend on who shares its cohort — including
  // cohorts that split archetypes unevenly (5, 48) or degenerate to one
  // device (1). Explicit slices, not the runner's plan, so every size is hit.
  std::vector<Scenario> scenarios;
  for (std::uint64_t id = 0; id < 48; ++id) {
    Scenario s = sample_scenario(2020, id);
    s.days = 2;
    scenarios.push_back(s);
  }
  const std::string reference = engine_oracle(48, 2);
  for (std::size_t cohort : {std::size_t{1}, std::size_t{5}, std::size_t{16},
                             std::size_t{48}}) {
    ShardSimulator sim;
    FleetStats rows;
    for (std::size_t begin = 0; begin < scenarios.size(); begin += cohort) {
      const std::size_t end = std::min(begin + cohort, scenarios.size());
      sim.begin(std::vector<Scenario>(scenarios.begin() + static_cast<std::ptrdiff_t>(begin),
                                      scenarios.begin() + static_cast<std::ptrdiff_t>(end)));
      while (sim.step_day()) {
      }
      for (const DeviceOutcome& o : sim.outcomes()) rows.add(o);
    }
    EXPECT_EQ(reference, rows.serialize()) << "cohort size " << cohort;
  }
}

TEST(FleetCohort, MultiDayBatteryCarryOver) {
  // Day d+1 starts from day d's final SoC per device; seven days compound any
  // divergence in the carried state or the per-day RNG draw order.
  EXPECT_EQ(engine_oracle(12, 7), runner_rows(population(12, 2020, 7, 2, 4)));
}

TEST(FleetCohort, ByteIdenticalWithSharedApp) {
  // A shard draws every device's windows for a day before moving on; that
  // must not change any label or any later RNG draw, so it agrees with the
  // per-device loop. The digest was recorded from the earlier build that
  // ran each pick through the batch inference engine.
  const core::StressDetectionApp& app = test::tiny_app();
  LongitudinalConfig config = population(16, 2020, 2, 2, 4);
  config.app = &app;
  config.record_outcomes = true;
  const LongitudinalResult cohort = LongitudinalRunner(config).run();

  const std::string reference = engine_oracle(16, 2, &app);
  EXPECT_EQ(reference, cohort.outcomes.serialize());
  EXPECT_GT(cohort.outcomes.summarize().classified, 0u);
  EXPECT_EQ(test::fnv1a(reference), kSharedAppDigest);
}

}  // namespace
}  // namespace iw::fleet
