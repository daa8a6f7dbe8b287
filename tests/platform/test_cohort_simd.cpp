// SIMD tier parity for the cohort day kernel (DESIGN.md §15): tier-off, the
// avx2 tier and the avx512 tier must each reproduce the scalar oracle bit for
// bit, lane by lane — across cohort sizes straddling the pack widths (1-5
// around W = 4, 7/8/9/12 around W = 8 and the avx512 tier's 4-lane avx2
// tail, plus 15/17/31/33 around the 16-lane blocks), across the policy mix
// that selects each drain mode (lockstep, vectorized rounds, scalar), and
// with register-ineligible lanes (trace recording) interleaved so the SIMD
// prefix/general-sweep split itself is exercised. A second pool holds many
// lanes per (policy, period, profile shape) bucket, so the cohort sort forms
// shape-uniform packs (one-vector intake loads) next to mixed ones, in any
// member order. Each vector tier has its own tests, which skip with the
// reason when the tier is not usable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fleet/scenario.hpp"
#include "platform/cohort_day.hpp"
#include "platform/detection_cost.hpp"
#include "platform/device.hpp"
#include "platform/fast_day.hpp"
#include "platform/scheduler.hpp"

namespace iw::platform {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

void expect_bit_identical(const DaySimulationResult& oracle,
                          const DaySimulationResult& cohort,
                          const std::string& context) {
  EXPECT_EQ(oracle.detections_attempted, cohort.detections_attempted) << context;
  EXPECT_EQ(oracle.detections_completed, cohort.detections_completed) << context;
  EXPECT_EQ(oracle.detections_skipped, cohort.detections_skipped) << context;
  EXPECT_EQ(bits(oracle.harvested_j), bits(cohort.harvested_j)) << context;
  EXPECT_EQ(bits(oracle.consumed_j), bits(cohort.consumed_j)) << context;
  EXPECT_EQ(bits(oracle.initial_soc), bits(cohort.initial_soc)) << context;
  EXPECT_EQ(bits(oracle.final_soc), bits(cohort.final_soc)) << context;
  EXPECT_EQ(bits(oracle.min_soc), bits(cohort.min_soc)) << context;
  const std::vector<std::string> channels = oracle.trace.channel_names();
  ASSERT_EQ(channels, cohort.trace.channel_names()) << context;
  for (const std::string& name : channels) {
    const sim::TraceChannel& a = oracle.trace.channel(name);
    const sim::TraceChannel& b = cohort.trace.channel(name);
    ASSERT_EQ(a.times.size(), b.times.size()) << context << " channel " << name;
    for (std::size_t i = 0; i < a.times.size(); ++i) {
      ASSERT_EQ(bits(a.times[i]), bits(b.times[i]))
          << context << " channel " << name << " sample " << i;
      ASSERT_EQ(bits(a.values[i]), bits(b.values[i]))
          << context << " channel " << name << " sample " << i;
    }
  }
}

struct Case {
  DeviceConfig config;
  hv::DayProfile profile;
  const DetectionPolicy* policy = nullptr;
  std::string context;
};

const hv::DualSourceHarvester& shared_harvester() {
  static const hv::DualSourceHarvester harvester =
      hv::DualSourceHarvester::calibrated();
  return harvester;
}

DaySimulationResult run_oracle(const Case& c) {
  return c.policy != nullptr
             ? simulate_day_fast_with_policy(c.config, shared_harvester(),
                                             c.profile, *c.policy)
             : simulate_day_fast(c.config, shared_harvester(), c.profile);
}

/// Why a tier's parity tests skip: the tier's kernel is not in this build or
/// the host cannot run it. Tier-off alone runs the scalar cohort kernel,
/// which test_cohort_day already holds to the oracle.
constexpr const char* kNoAvx2 = "avx2 tier not usable in this build/host";
constexpr const char* kNoAvx512 = "avx512 tier not usable in this build/host";

struct TierGuard {
  ~TierGuard() { simd::clear_override(); }
};

/// The fleet's own worlds with tracing OFF, so every lane is eligible for
/// the register ladder the SIMD tier accelerates. All four policy slots are
/// present: null (lockstep drain), the built-ins (vectorized rounds), and —
/// once sorted lanes cross a policy boundary mid-pack — the scalar drain.
std::vector<Case> eligible_case_pool(int lux_factors_per_archetype) {
  static const FixedRatePolicy fixed(60.0);
  static const SocProportionalPolicy soc_prop(0.5, 4.0);
  static const EnergyNeutralPolicy neutral;
  const std::vector<const DetectionPolicy*> policies{nullptr, &fixed, &soc_prop,
                                                     &neutral};
  std::vector<Case> cases;
  Rng rng(0x51c0407dULL);
  for (int p = 0; p < fleet::kNumWearerProfiles; ++p) {
    fleet::Scenario scenario = fleet::sample_scenario(2020, 300 + p);
    scenario.profile = static_cast<fleet::WearerProfile>(p);
    const hv::DayProfile base = fleet::build_day_profile(scenario);
    for (int f = 0; f < lux_factors_per_archetype; ++f) {
      const double lux_factor =
          std::exp(rng.normal(0.0, scenario.lux_sigma_day));
      for (std::size_t i = 0; i < policies.size(); ++i) {
        Case c;
        c.config.detection = make_detection_cost({});
        c.config.detection_period_s = scenario.detection_period_s;
        c.config.initial_soc = scenario.initial_soc;
        c.config.record_trace = false;
        c.profile = scale_profile_lux(base, lux_factor);
        c.policy = policies[i];
        c.context = "archetype " +
                    std::string(fleet::to_string(scenario.profile)) +
                    " policy " + std::to_string(i) + " lux " + std::to_string(f);
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

void run_cohorts(const std::vector<Case>& cases, std::size_t cohort_size,
                 std::vector<DaySimulationResult>& results) {
  CohortDayState cohort;
  std::vector<CohortMember> members;
  for (std::size_t begin = 0; begin < cases.size(); begin += cohort_size) {
    const std::size_t end = std::min(begin + cohort_size, cases.size());
    members.clear();
    for (std::size_t i = begin; i < end; ++i) {
      members.push_back(CohortMember{&cases[i].config, &shared_harvester(),
                                     &cases[i].profile, cases[i].policy,
                                     &results[i]});
    }
    cohort.run_day(members);
  }
}

/// Runs the pool at every cohort size under each tier of `tiers` and holds
/// every lane to the oracle.
void expect_tiers_match_oracle_across_sizes(std::initializer_list<simd::Tier> tiers) {
  const std::vector<Case> cases = eligible_case_pool(2);  // 5 x 2 x 4 = 40
  std::vector<DaySimulationResult> oracle(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) oracle[i] = run_oracle(cases[i]);

  TierGuard guard;
  std::vector<DaySimulationResult> results(cases.size());
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{9},
        std::size_t{12}, std::size_t{15}, std::size_t{17}, std::size_t{31},
        std::size_t{33}}) {
    for (const simd::Tier tier : tiers) {
      simd::override_tier(tier);
      run_cohorts(cases, size, results);
      for (std::size_t i = 0; i < cases.size(); ++i) {
        expect_bit_identical(oracle[i], results[i],
                             cases[i].context + " cohort_size " +
                                 std::to_string(size) + " tier " +
                                 simd::tier_name(tier));
      }
    }
  }
}

/// Alternates trace-recording (register-ineligible) and plain lanes so every
/// cohort splits between the SIMD prefix and the general sweep; the split
/// must not change either side's bits under any tier of `tiers`.
void expect_mixed_lanes_match_oracle(std::initializer_list<simd::Tier> tiers) {
  std::vector<Case> cases = eligible_case_pool(1);  // 20 lanes
  for (std::size_t i = 0; i < cases.size(); i += 2) {
    cases[i].config.record_trace = true;
    cases[i].context += " traced";
  }
  std::vector<DaySimulationResult> oracle(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) oracle[i] = run_oracle(cases[i]);

  TierGuard guard;
  std::vector<DaySimulationResult> results(cases.size());
  for (const simd::Tier tier : tiers) {
    simd::override_tier(tier);
    run_cohorts(cases, cases.size(), results);  // one cohort holds them all
    for (std::size_t i = 0; i < cases.size(); ++i) {
      expect_bit_identical(oracle[i], results[i],
                           cases[i].context + " mixed tier " +
                               simd::tier_name(tier));
    }
  }
}

/// 16 lanes per (policy, period, profile shape) bucket with varying lux
/// factor and initial SoC, over the five archetypes plus one profile cut
/// into more segments than a pack's lane-major intake table holds, and one
/// odd lane in some buckets so that packs straddling two shapes form too.
std::vector<Case> shape_bucket_pool() {
  static const FixedRatePolicy fixed(60.0);
  static const SocProportionalPolicy soc_prop(0.5, 4.0);
  static const EnergyNeutralPolicy neutral;
  const std::vector<const DetectionPolicy*> policies{nullptr, &fixed, &soc_prop,
                                                     &neutral};
  constexpr int kLanesPerBucket = 16;
  Rng rng(0x5a3e0b0cULL);
  std::vector<std::pair<fleet::Scenario, hv::DayProfile>> shapes;
  for (int p = 0; p < fleet::kNumWearerProfiles; ++p) {
    fleet::Scenario scenario = fleet::sample_scenario(2020, 400 + p);
    scenario.profile = static_cast<fleet::WearerProfile>(p);
    shapes.emplace_back(scenario, fleet::build_day_profile(scenario));
  }
  // Every segment of the first archetype cut in three: 20+ segments.
  hv::DayProfile fine;
  for (const hv::EnvironmentSegment& seg : shapes[0].second) {
    const double third = seg.duration_s / 3.0;
    fine.push_back({third, seg.env});
    fine.push_back({third, seg.env});
    fine.push_back({seg.duration_s - 2.0 * third, seg.env});
  }
  shapes.emplace_back(shapes[0].first, std::move(fine));

  std::vector<Case> cases;
  for (std::size_t sh = 0; sh < shapes.size(); ++sh) {
    const auto& [scenario, base] = shapes[sh];
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const int lanes = kLanesPerBucket + ((sh + i) % 3 == 0 ? 1 : 0);
      for (int l = 0; l < lanes; ++l) {
        Case c;
        c.config.detection = make_detection_cost({});
        c.config.detection_period_s = scenario.detection_period_s;
        // A few lanes start full, so charge masks also go partial that way.
        c.config.initial_soc = l % 7 == 0 ? 1.0 : rng.uniform(0.02, 0.98);
        c.config.record_trace = false;
        c.profile = scale_profile_lux(base, std::exp(rng.normal(0.0, 0.4)));
        c.policy = policies[i];
        c.context = "shape " + std::to_string(sh) + " policy " +
                    std::to_string(i) + " lane " + std::to_string(l);
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

/// Runs the bucket pool as one cohort in the given, reversed and a seeded
/// shuffled member order under each tier of `tiers`, holding every lane to
/// the oracle. Under a vector tier both intake paths must have run.
void expect_shape_buckets_match_oracle(std::initializer_list<simd::Tier> tiers) {
  const std::vector<Case> cases = shape_bucket_pool();
  std::vector<DaySimulationResult> oracle(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) oracle[i] = run_oracle(cases[i]);

  std::vector<std::size_t> given(cases.size());
  for (std::size_t i = 0; i < given.size(); ++i) given[i] = i;
  const std::vector<std::size_t> reversed(given.rbegin(), given.rend());
  Rng rng(0x0dde12ULL);
  const std::vector<std::size_t> shuffled = rng.permutation(cases.size());
  const std::vector<std::pair<const char*, const std::vector<std::size_t>*>> orders{
      {"given", &given}, {"reversed", &reversed}, {"shuffled", &shuffled}};

  TierGuard guard;
  std::vector<DaySimulationResult> results(cases.size());
  for (const simd::Tier tier : tiers) {
    simd::override_tier(tier);
    for (const auto& [name, order] : orders) {
      std::vector<CohortMember> members;
      for (const std::size_t i : *order) {
        members.push_back(CohortMember{&cases[i].config, &shared_harvester(),
                                       &cases[i].profile, cases[i].policy,
                                       &results[i]});
      }
      CohortDayState cohort;
      cohort.run_day(members);
      for (std::size_t i = 0; i < cases.size(); ++i) {
        expect_bit_identical(oracle[i], results[i],
                             cases[i].context + " order " + name + " tier " +
                                 simd::tier_name(tier));
      }
      const CohortPackStats& stats = cohort.pack_stats();
      const std::uint64_t packs =
          stats.lockstep_packs + stats.rounds_packs + stats.scalar_packs;
      if (tier != simd::Tier::kOff) {
        EXPECT_GT(stats.uniform_packs, 0u) << name << " " << simd::tier_name(tier);
        EXPECT_LT(stats.uniform_packs, packs) << name << " " << simd::tier_name(tier);
      } else {
        EXPECT_EQ(packs, 0u) << name;
      }
    }
  }
}

TEST(CohortSimd, ShapeBucketsMatchOracleInAnyMemberOrder) {
  if (!simd::tier_usable(simd::Tier::kAvx2)) GTEST_SKIP() << kNoAvx2;
  expect_shape_buckets_match_oracle({simd::Tier::kOff, simd::Tier::kAvx2});
}

TEST(CohortSimd, Avx512ShapeBucketsMatchOracleInAnyMemberOrder) {
  if (!simd::tier_usable(simd::Tier::kAvx512)) GTEST_SKIP() << kNoAvx512;
  expect_shape_buckets_match_oracle({simd::Tier::kAvx512});
}

TEST(CohortSimd, TiersMatchOracleAcrossPackBoundarySizes) {
  if (!simd::tier_usable(simd::Tier::kAvx2)) GTEST_SKIP() << kNoAvx2;
  expect_tiers_match_oracle_across_sizes({simd::Tier::kOff, simd::Tier::kAvx2});
}

TEST(CohortSimd, Avx512MatchesOracleAcrossPackBoundarySizes) {
  if (!simd::tier_usable(simd::Tier::kAvx512)) GTEST_SKIP() << kNoAvx512;
  expect_tiers_match_oracle_across_sizes({simd::Tier::kAvx512});
}

TEST(CohortSimd, MixedEligibleAndIneligibleLanesInOneCohort) {
  if (!simd::tier_usable(simd::Tier::kAvx2)) GTEST_SKIP() << kNoAvx2;
  expect_mixed_lanes_match_oracle({simd::Tier::kOff, simd::Tier::kAvx2});
}

TEST(CohortSimd, Avx512MixedEligibleAndIneligibleLanesInOneCohort) {
  if (!simd::tier_usable(simd::Tier::kAvx512)) GTEST_SKIP() << kNoAvx512;
  expect_mixed_lanes_match_oracle({simd::Tier::kAvx512});
}

}  // namespace
}  // namespace iw::platform
