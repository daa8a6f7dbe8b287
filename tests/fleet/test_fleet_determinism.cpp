// The fleet runner's hard invariant: for a fixed fleet seed, results are
// bit-identical no matter how many worker threads simulate the fleet or how
// the population is cut into shards.
#include <gtest/gtest.h>

#include <string>

#include "fleet_fixtures.hpp"

namespace iw::fleet {
namespace {

using test::population;
using test::runner_rows;

LongitudinalConfig small_fleet(int threads) {
  // Shards of at most 4 devices: 12+ shards -> plenty of interleaving.
  return population(48, 2020, 2, threads, 4);
}

TEST(FleetDeterminism, ByteIdenticalAcrossThreadCounts) {
  // The runner's own partition (about four shards per worker), which moves
  // with the thread count.
  const std::string at1 = runner_rows(population(48, 2020, 2, 1));
  EXPECT_EQ(at1, runner_rows(population(48, 2020, 2, 2)));
  EXPECT_EQ(at1, runner_rows(population(48, 2020, 2, 8)));
}

TEST(FleetDeterminism, ChunkSizeDoesNotChangeResults) {
  // Shard size is the runner's work chunk: one shard per round (no parallel
  // interleaving) and one device per shard must agree.
  LongitudinalConfig coarse = small_fleet(4);
  coarse.shard_size = 48;
  LongitudinalConfig fine = small_fleet(4);
  fine.shard_size = 1;
  EXPECT_EQ(runner_rows(coarse), runner_rows(fine));
}

TEST(FleetDeterminism, RerunIsBitIdentical) {
  const LongitudinalConfig config = small_fleet(3);
  EXPECT_EQ(runner_rows(config), runner_rows(config));
}

TEST(FleetDeterminism, DifferentSeedsProduceDifferentFleets) {
  LongitudinalConfig b = small_fleet(2);
  b.fleet_seed = 2021;
  EXPECT_NE(runner_rows(small_fleet(2)), runner_rows(b));
}

TEST(FleetDeterminism, SharedAppClassificationIsThreadCountInvariant) {
  // Shared const access to one app from many workers.
  LongitudinalConfig config = population(16, 2020, 1, 1, 4);
  config.app = &test::tiny_app();
  config.record_outcomes = true;
  const LongitudinalResult serial = LongitudinalRunner(config).run();
  config.threads = 8;
  EXPECT_EQ(serial.outcomes.serialize(), runner_rows(config));
  // The app actually classified windows.
  EXPECT_GT(serial.outcomes.summarize().classified, 0u);
}

// Regression pin for one small fleet: catches accidental changes to scenario
// sampling, the device simulation, or the stats reduction. If a PR changes
// these numbers *intentionally* (new scenario fields, different draw order),
// re-pin them and say so in the PR description.
TEST(FleetRegression, PinnedSmallFleetAggregates) {
  LongitudinalConfig config = population(16, 2020, 1, 2);
  config.record_outcomes = true;
  const FleetStats::Summary s = LongitudinalRunner(config).run().outcomes.summarize();

  EXPECT_EQ(s.devices, 16u);
  EXPECT_EQ(s.detections_attempted, 28810u);
  EXPECT_EQ(s.detections_completed, 28810u);
  EXPECT_EQ(s.detections_skipped, 0u);
  EXPECT_NEAR(s.fraction_self_sustaining, 1.0, 1e-9);
  EXPECT_NEAR(s.final_soc.p50, 0.64778712066371169, 1e-9);
  EXPECT_NEAR(s.harvested_j, 1232.7915719894299, 1e-6);
}

}  // namespace
}  // namespace iw::fleet
