// Shard isolation: any contiguous sub-population simulated alone must be
// byte-identical to the same devices inside the full-population run. This is
// what Rng::substream buys — device i's scenario and every in-device draw
// depend only on (fleet_seed, i) — and it is the property that lets the
// longitudinal runner generate shards on demand instead of holding the
// population in memory, and cut them however it likes (plan_shards).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fleet/longitudinal/runner.hpp"

namespace iw::fleet {
namespace {

constexpr std::uint64_t kSeed = 31415;
constexpr int kDays = 4;

std::string rows_for_range(const FleetStats& stats, std::uint64_t begin,
                           std::uint64_t end) {
  FleetStats subset;
  for (const DeviceOutcome& o : stats.outcome_table()) {
    if (o.device_id >= begin && o.device_id < end) subset.add(o);
  }
  return subset.serialize();
}

TEST(LongitudinalShard, SubPopulationMatchesFullRunAcrossThreadCounts) {
  // Full population once, rows retained, as the reference.
  LongitudinalConfig full;
  full.num_devices = 240;
  full.fleet_seed = kSeed;
  full.days = kDays;
  full.shard_size = 48;
  full.threads = 2;
  full.record_outcomes = true;
  const FleetStats full_rows = LongitudinalRunner(full).run().outcomes;

  // Three sub-ranges: interior, head, and tail of the id space — each run in
  // isolation at 1/2/8 threads must reproduce its slice of the full run.
  struct Range {
    std::uint64_t first;
    std::uint64_t count;
  };
  for (const Range range : {Range{100, 60}, Range{0, 17}, Range{233, 7}}) {
    const std::string expected =
        rows_for_range(full_rows, range.first, range.first + range.count);
    for (int threads : {1, 2, 8}) {
      LongitudinalConfig sub;
      sub.num_devices = range.count;
      sub.first_device = range.first;
      sub.fleet_seed = kSeed;
      sub.days = kDays;
      sub.shard_size = 16;
      sub.threads = threads;
      sub.record_outcomes = true;
      EXPECT_EQ(expected,
                LongitudinalRunner(sub).run().outcomes.serialize())
          << "range [" << range.first << ", " << range.first + range.count
          << ") at " << threads << " threads";
    }
  }
}

TEST(LongitudinalShard, AggregatesOfDisjointShardsMergeToFullRun) {
  // Cut the population into uneven sub-runs, stream each into its own
  // aggregate, merge: byte-identical to the full run's aggregate. (The
  // runner does exactly this internally; this pins it end to end across
  // separate runner instances.)
  LongitudinalConfig full;
  full.num_devices = 150;
  full.fleet_seed = kSeed;
  full.days = kDays;
  full.shard_size = 64;
  const std::string expected = LongitudinalRunner(full).run().stats.serialize();

  const std::uint64_t cuts[] = {0, 13, 64, 149, 150};
  LongitudinalStats merged;
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
    LongitudinalConfig sub;
    sub.num_devices = cuts[i + 1] - cuts[i];
    sub.first_device = cuts[i];
    sub.fleet_seed = kSeed;
    sub.days = kDays;
    sub.shard_size = 11;
    sub.threads = 2;
    merged.merge(LongitudinalRunner(sub).run().stats);
  }
  EXPECT_EQ(expected, merged.serialize());
}

constexpr std::uint64_t kNoCap = std::numeric_limits<std::uint64_t>::max();
const std::uint64_t kPopulations[] = {1, 3, 7, 300, 20000};
const int kThreadCounts[] = {1, 2, 4, 8};
const std::uint64_t kCaps[] = {1, 17, 4096, kNoCap};

std::string case_name(std::uint64_t n, int threads, std::uint64_t cap) {
  return "n=" + std::to_string(n) + " threads=" + std::to_string(threads) +
         " cap=" + std::to_string(cap);
}

TEST(LongitudinalShard, PlanCoversPopulationInEqualShardsWithinCap) {
  for (const std::uint64_t n : kPopulations) {
    for (const int threads : kThreadCounts) {
      for (const std::uint64_t cap : kCaps) {
        SCOPED_TRACE(case_name(n, threads, cap));
        const ShardPlan plan = plan_shards(n, threads, cap);
        EXPECT_EQ(static_cast<std::uint64_t>(plan.workers),
                  std::min<std::uint64_t>(static_cast<std::uint64_t>(threads), n));
        EXPECT_GE(plan.shards, static_cast<std::uint64_t>(plan.workers));
        EXPECT_LE(plan.shard_size, cap);
        // Contiguous, in order, none empty, ending exactly at n.
        std::uint64_t covered = 0;
        for (std::uint64_t s = 0; s < plan.shards; ++s) {
          const std::uint64_t begin = s * plan.shard_size;
          const std::uint64_t end = std::min(n, begin + plan.shard_size);
          ASSERT_EQ(begin, covered);
          ASSERT_LT(begin, end);
          covered = end;
        }
        EXPECT_EQ(covered, n);
      }
    }
  }
  // The default cap at 20k devices on 4 threads: four equal claims per
  // worker, where cutting at the cap gave 5 shards and a second round that
  // one worker ran alone.
  const ShardPlan plan = plan_shards(20000, 4, 4096);
  EXPECT_EQ(plan.shard_size, 1250u);
  EXPECT_EQ(plan.shards, 16u);
}

TEST(LongitudinalShard, DefaultCapPlansEightClaimsPerWorkerAt20k) {
  // The default cap bounds each worker's lane state; at 20k devices on 4
  // threads it cuts 32 shards of 625 (eight claims per worker), above the
  // ~600-lane size under which the cohort kernel's packs lose coherence.
  const ShardPlan plan = plan_shards(20000, 4, LongitudinalConfig{}.shard_size);
  EXPECT_EQ(plan.shard_size, 625u);
  EXPECT_EQ(plan.shards, 32u);
  EXPECT_EQ(plan.workers, 4);
}

TEST(LongitudinalShard, StatsIndependentOfPartition) {
  // Every partition reduces to the one-thread run's bytes and reports the
  // plan it used. The 20k population runs one day on 1 and 4 threads at
  // the two largest caps only; all its plans are checked above.
  for (const std::uint64_t n : kPopulations) {
    LongitudinalConfig base;
    base.num_devices = n;
    base.fleet_seed = kSeed;
    base.days = n > 300 ? 1 : 2;
    const std::string reference = LongitudinalRunner(base).run().stats.serialize();
    for (const int threads : kThreadCounts) {
      for (const std::uint64_t cap : kCaps) {
        if (n > 300 && (cap < 4096 || threads == 2 || threads == 8)) continue;
        SCOPED_TRACE(case_name(n, threads, cap));
        LongitudinalConfig config = base;
        config.threads = threads;
        config.shard_size = cap;
        const LongitudinalResult result = LongitudinalRunner(config).run();
        const ShardPlan plan = plan_shards(n, threads, cap);
        EXPECT_EQ(result.shard_size, plan.shard_size);
        EXPECT_EQ(result.shards, plan.shards);
        EXPECT_EQ(result.threads_used, plan.workers);
        EXPECT_EQ(reference, result.stats.serialize());
      }
    }
  }
}

}  // namespace
}  // namespace iw::fleet
