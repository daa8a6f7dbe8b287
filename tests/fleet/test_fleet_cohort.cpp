// FleetConfig::cohort_day must be invisible in the results: the aggregate
// FleetStats serialization (summary + full per-device outcome table, every
// double printed exactly) has to be byte-identical between the cohort path,
// the per-device scalar fast path, and the discrete-event engine path — at
// any thread count, any chunk (= cohort) size, across multi-day runs with
// battery carry-over, and with the shared classification app present or
// absent.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fleet/fleet_engine.hpp"

namespace iw::fleet {
namespace {

FleetConfig mixed_fleet(int threads, bool cohort_day, bool fast_day = true) {
  FleetConfig config;
  config.num_devices = 48;  // covers all archetypes, policies and duty cycles
  config.fleet_seed = 2020;
  config.days = 2;
  config.threads = threads;
  config.chunk_size = 4;
  config.fast_day = fast_day;
  config.cohort_day = cohort_day;
  return config;
}

/// FNV-1a digest of ByteIdenticalWithSharedApp's FleetStats serialization.
constexpr std::uint64_t kSharedAppDigest = 0xd6a09a7445cfbfbdULL;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

core::StressDetectionApp tiny_app() {
  // Same deliberately tiny app as the other fleet suites: the point is the
  // classification plumbing, not model quality.
  core::AppConfig app_config;
  app_config.dataset.subjects = 2;
  app_config.dataset.minutes_per_level = 2.0;
  app_config.training.max_epochs = 40;
  return core::StressDetectionApp::build(app_config);
}

TEST(FleetCohort, ByteIdenticalToScalarPathsAcrossThreadCounts) {
  const std::string engine_path =
      FleetEngine(mixed_fleet(1, false, /*fast_day=*/false)).run().stats.serialize();
  const std::string fast_path =
      FleetEngine(mixed_fleet(1, false)).run().stats.serialize();
  EXPECT_EQ(engine_path, fast_path);
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(engine_path,
              FleetEngine(mixed_fleet(threads, true)).run().stats.serialize())
        << "cohort path diverged at " << threads << " threads";
  }
}

TEST(FleetCohort, ByteIdenticalAcrossCohortSizes) {
  // Chunk size is cohort size: a device's bits must not depend on who shares
  // its cohort — including cohorts that split archetypes unevenly (5, 48) or
  // degenerate to one device (1).
  const std::string reference =
      FleetEngine(mixed_fleet(1, false)).run().stats.serialize();
  for (std::size_t cohort : {std::size_t{1}, std::size_t{5}, std::size_t{16},
                             std::size_t{48}}) {
    FleetConfig config = mixed_fleet(2, true);
    config.chunk_size = cohort;
    EXPECT_EQ(reference, FleetEngine(config).run().stats.serialize())
        << "cohort size " << cohort;
  }
}

TEST(FleetCohort, MultiDayBatteryCarryOver) {
  // Day d+1 starts from day d's final SoC per device; seven days compound any
  // divergence in the carried state or the per-day RNG draw order.
  FleetConfig cohort = mixed_fleet(2, true);
  cohort.num_devices = 12;
  cohort.days = 7;
  FleetConfig scalar = cohort;
  scalar.cohort_day = false;
  EXPECT_EQ(FleetEngine(scalar).run().stats.serialize(),
            FleetEngine(cohort).run().stats.serialize());
}

TEST(FleetCohort, ByteIdenticalWithSharedApp) {
  // The cohort draws every device's windows for a day before moving on;
  // that must not change any label or any later RNG draw, so it agrees with
  // the per-device loop. The digest was recorded from the earlier build that
  // ran each pick through the batch inference engine.
  const core::StressDetectionApp app = tiny_app();
  FleetConfig base = mixed_fleet(2, true);
  base.num_devices = 16;
  base.days = 2;
  base.app = &app;

  FleetConfig scalar = base;
  scalar.cohort_day = false;
  const std::string reference = FleetEngine(scalar).run().stats.serialize();

  const FleetResult cohort = FleetEngine(base).run();
  EXPECT_EQ(reference, cohort.stats.serialize());
  EXPECT_GT(cohort.stats.summarize().classified, 0u);
  EXPECT_EQ(fnv1a(reference), kSharedAppDigest);
}

TEST(FleetCohort, FastDayOffStillSelectsEngineOracle) {
  // cohort_day only applies on top of the fast path; fast_day=false must keep
  // selecting the engine path so existing oracle comparisons stay meaningful.
  FleetConfig config = mixed_fleet(1, true, /*fast_day=*/false);
  config.num_devices = 4;
  config.days = 1;
  const std::string engine_path = FleetEngine(config).run().stats.serialize();
  config.cohort_day = false;
  EXPECT_EQ(engine_path, FleetEngine(config).run().stats.serialize());
}

}  // namespace
}  // namespace iw::fleet
