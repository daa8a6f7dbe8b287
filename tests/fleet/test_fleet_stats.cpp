#include "fleet/fleet_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>


namespace iw::fleet {
namespace {

DeviceOutcome outcome(std::uint64_t id, double final_soc, bool sustaining,
                      std::uint64_t completed = 100) {
  DeviceOutcome d;
  d.device_id = id;
  d.profile = static_cast<WearerProfile>(id % kNumWearerProfiles);
  d.policy = static_cast<PolicyKind>(id % kNumPolicyKinds);
  d.days_run = 1;
  d.detections_attempted = completed + 5;
  d.detections_completed = completed;
  d.detections_skipped = 5;
  d.harvested_j = 20.0 + static_cast<double>(id);
  d.consumed_j = 18.0;
  d.initial_soc = 0.5;
  d.final_soc = final_soc;
  d.min_soc = final_soc / 2.0;
  d.detections_per_min = static_cast<double>(completed) / 1440.0;
  d.mean_intake_w = d.harvested_j / 86400.0;
  d.self_sustaining = sustaining;
  d.class_counts = {completed / 2, completed / 4, completed / 4};
  d.classified = completed;
  return d;
}

TEST(FleetStats, EmptySummaryIsZero) {
  FleetStats stats;
  const FleetStats::Summary s = stats.summarize();
  EXPECT_EQ(s.devices, 0u);
  EXPECT_EQ(s.detections_completed, 0u);
  EXPECT_DOUBLE_EQ(s.fraction_self_sustaining, 0.0);
  EXPECT_DOUBLE_EQ(s.final_soc.p50, 0.0);
}

TEST(FleetStats, AggregatesTotalsAndFractions) {
  FleetStats stats;
  stats.add(outcome(0, 0.8, true));
  stats.add(outcome(1, 0.4, false));
  stats.add(outcome(2, 0.6, true));
  stats.add(outcome(3, 0.2, false));

  const FleetStats::Summary s = stats.summarize();
  EXPECT_EQ(s.devices, 4u);
  EXPECT_EQ(s.detections_completed, 400u);
  EXPECT_EQ(s.detections_skipped, 20u);
  EXPECT_DOUBLE_EQ(s.fraction_self_sustaining, 0.5);
  EXPECT_DOUBLE_EQ(s.final_soc.p50, 0.5);  // median of .2 .4 .6 .8
  EXPECT_EQ(s.class_counts[0], 200u);
  EXPECT_EQ(s.classified, 400u);
  // Profile histogram covers ids 0..3.
  EXPECT_EQ(s.per_profile[0], 1u);
  EXPECT_EQ(s.per_profile[3], 1u);
}

TEST(FleetStats, MergeMatchesSequentialAdds) {
  std::vector<DeviceOutcome> all;
  for (std::uint64_t id = 0; id < 12; ++id) {
    all.push_back(outcome(id, 0.1 + 0.05 * static_cast<double>(id), id % 3 == 0));
  }

  FleetStats sequential;
  for (const DeviceOutcome& d : all) sequential.add(d);

  FleetStats shard_a, shard_b, shard_c;
  for (std::uint64_t id = 0; id < 4; ++id) shard_a.add(all[id]);
  for (std::uint64_t id = 4; id < 9; ++id) shard_b.add(all[id]);
  for (std::uint64_t id = 9; id < 12; ++id) shard_c.add(all[id]);

  FleetStats merged;
  merged.merge(shard_a);
  merged.merge(shard_b);
  merged.merge(shard_c);

  EXPECT_EQ(merged.device_count(), sequential.device_count());
  EXPECT_EQ(merged.serialize(), sequential.serialize());
}

TEST(FleetStats, SerializeIsInsertionOrderInvariant) {
  // Shards may receive devices in any order; the canonical form may not care.
  FleetStats forward, backward;
  for (std::uint64_t id = 0; id < 8; ++id) {
    forward.add(outcome(id, 0.3 + 0.05 * static_cast<double>(id), false));
  }
  for (std::uint64_t id = 8; id-- > 0;) {
    backward.add(outcome(id, 0.3 + 0.05 * static_cast<double>(id), false));
  }
  EXPECT_EQ(forward.serialize(), backward.serialize());
}

TEST(FleetStats, OutcomeTableIsSortedByDeviceId) {
  FleetStats stats;
  stats.add(outcome(5, 0.5, false));
  stats.add(outcome(1, 0.5, false));
  stats.add(outcome(3, 0.5, false));
  const std::vector<DeviceOutcome> table = stats.outcome_table();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0].device_id, 1u);
  EXPECT_EQ(table[1].device_id, 3u);
  EXPECT_EQ(table[2].device_id, 5u);
}

TEST(FleetStats, PercentilesInterpolate) {
  FleetStats stats;
  for (std::uint64_t id = 0; id < 5; ++id) {
    stats.add(outcome(id, 0.1 * static_cast<double>(id + 1), false));
  }
  const FleetStats::Summary s = stats.summarize();
  // Values .1 .2 .3 .4 .5: p50 = .3, p25 = .2, p75 = .4.
  EXPECT_NEAR(s.final_soc.p50, 0.3, 1e-12);
  EXPECT_NEAR(s.final_soc.p25, 0.2, 1e-12);
  EXPECT_NEAR(s.final_soc.p75, 0.4, 1e-12);
  EXPECT_NEAR(s.final_soc.p5, 0.12, 1e-12);
  EXPECT_NEAR(s.final_soc.p95, 0.48, 1e-12);
}

void expect_finite(const FleetStats::Percentiles& p) {
  EXPECT_TRUE(std::isfinite(p.p5));
  EXPECT_TRUE(std::isfinite(p.p25));
  EXPECT_TRUE(std::isfinite(p.p50));
  EXPECT_TRUE(std::isfinite(p.p75));
  EXPECT_TRUE(std::isfinite(p.p95));
}

TEST(FleetStats, EmptyFleetPercentilesAreNaNFree) {
  // An empty fleet (and empty shards merged into it) must not divide by a
  // zero device count anywhere: every percentile stays a finite zero.
  FleetStats stats;
  FleetStats empty_shard;
  stats.merge(empty_shard);
  stats.merge(FleetStats{});
  const FleetStats::Summary s = stats.summarize();
  EXPECT_EQ(s.devices, 0u);
  EXPECT_DOUBLE_EQ(s.fraction_self_sustaining, 0.0);
  expect_finite(s.final_soc);
  expect_finite(s.min_soc);
  expect_finite(s.detections_per_min);
  expect_finite(s.intake_uw);
  EXPECT_FALSE(stats.serialize().empty());
}

TEST(FleetStats, SingleDeviceCollapsesPercentiles) {
  // With one device every percentile of every metric is that device's value
  // (interpolation over a single sample must not index out of range).
  FleetStats stats;
  stats.add(outcome(7, 0.65, true, 50));
  const FleetStats::Summary s = stats.summarize();
  EXPECT_EQ(s.devices, 1u);
  EXPECT_DOUBLE_EQ(s.fraction_self_sustaining, 1.0);
  EXPECT_DOUBLE_EQ(s.final_soc.p5, 0.65);
  EXPECT_DOUBLE_EQ(s.final_soc.p50, 0.65);
  EXPECT_DOUBLE_EQ(s.final_soc.p95, 0.65);
  EXPECT_DOUBLE_EQ(s.min_soc.p25, 0.325);
  EXPECT_DOUBLE_EQ(s.min_soc.p75, 0.325);
  expect_finite(s.detections_per_min);
  expect_finite(s.intake_uw);
}

TEST(FleetStats, PercentilesNaNFreeUnderMergeOrderPermutations) {
  // Three shards (one of them empty) merged in every order: the summary must
  // be NaN-free and bit-identical regardless of merge order, because all
  // derived values come from the id-sorted outcome table.
  std::vector<DeviceOutcome> all;
  for (std::uint64_t id = 0; id < 7; ++id) {
    all.push_back(outcome(id, 0.15 + 0.1 * static_cast<double>(id), id % 2 == 0,
                          10 + id));
  }
  FleetStats shards[3];
  for (std::uint64_t id = 0; id < 3; ++id) shards[0].add(all[id]);
  for (std::uint64_t id = 3; id < 7; ++id) shards[1].add(all[id]);
  // shards[2] stays empty.

  std::array<int, 3> order{0, 1, 2};
  std::string reference;
  do {
    FleetStats merged;
    for (const int shard : order) merged.merge(shards[shard]);
    const FleetStats::Summary s = merged.summarize();
    EXPECT_EQ(s.devices, all.size());
    expect_finite(s.final_soc);
    expect_finite(s.min_soc);
    expect_finite(s.detections_per_min);
    expect_finite(s.intake_uw);
    const std::string serialized = merged.serialize();
    if (reference.empty()) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

}  // namespace
}  // namespace iw::fleet
