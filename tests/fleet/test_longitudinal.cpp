// Longitudinal fleet service: the checkpoint/resume and runner contracts.
//
// The headline property: cutting a multi-day run at any day boundary —
// in-memory (ShardSimulator::save/resume over a record stream) or through a checkpoint
// file (LongitudinalRunner) — and continuing in a fresh simulator produces
// bit-identical results to never having stopped, across every archetype,
// policy variant, and battery edge state. Alongside it: the runner's
// aggregates are byte-identical across thread counts and shard sizes, and
// its per-device rows match the per-device oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fleet/longitudinal/runner.hpp"
#include "fleet_fixtures.hpp"

namespace iw::fleet {
namespace {

// 5 archetypes x 4 policy variants (three policy kinds plus a second
// fixed-rate period), with initial SoCs covering empty, full, and mid-range
// batteries — so day-k checkpoint states include devices pinned at the
// battery rails.
std::vector<Scenario> matrix_scenarios(int days) {
  std::vector<Scenario> scenarios;
  const double socs[] = {0.0, 1.0, 0.5, 0.12};
  int i = 0;
  for (int p = 0; p < kNumWearerProfiles; ++p) {
    for (int v = 0; v < 4; ++v) {
      Scenario s = sample_scenario(/*fleet_seed=*/515, static_cast<std::uint64_t>(i));
      s.profile = static_cast<WearerProfile>(p);
      switch (v) {
        case 0:
          s.policy = PolicyKind::kFixedRate;
          s.detection_period_s = 300.0;
          break;
        case 1:
          s.policy = PolicyKind::kFixedRate;
          s.detection_period_s = 900.0;
          break;
        case 2:
          s.policy = PolicyKind::kSocProportional;
          break;
        default:
          s.policy = PolicyKind::kEnergyNeutral;
          break;
      }
      s.initial_soc = socs[(static_cast<std::size_t>(i)) % std::size(socs)];
      s.days = days;
      scenarios.push_back(s);
      ++i;
    }
  }
  return scenarios;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

std::string rows_of(const ShardSimulator& sim) {
  FleetStats stats;
  for (const DeviceOutcome& o : sim.outcomes()) stats.add(o);
  return stats.serialize();
}

/// The shard's checkpoint record stream at its current day boundary.
std::vector<std::uint8_t> saved_records(const ShardSimulator& sim) {
  std::vector<std::uint8_t> records(sim.size() * kDeviceCheckpointBytes);
  sim.save(records);
  return records;
}

std::vector<DeviceCheckpoint> decode_records(const std::vector<std::uint8_t>& records) {
  ByteReader reader(records);
  std::vector<DeviceCheckpoint> cps;
  while (reader.remaining() > 0) cps.push_back(load_device_checkpoint(reader));
  return cps;
}

std::vector<std::uint8_t> encode_records(const std::vector<DeviceCheckpoint>& cps) {
  ByteWriter writer;
  for (const DeviceCheckpoint& cp : cps) save_device_checkpoint(cp, writer);
  return writer.data();
}

/// Resuming `records` against `scenarios` throws an Error whose message
/// contains `what`.
void expect_resume_error(const std::vector<Scenario>& scenarios,
                         const std::vector<std::uint8_t>& records, const std::string& what) {
  ShardSimulator fresh;
  try {
    fresh.resume(scenarios, records);
    ADD_FAILURE() << "resume accepted a stream that should fail with: " << what;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(DeviceCheckpoint, RecordRoundTripIsByteStable) {
  Rng rng(31337);
  rng.normal(0.0, 1.0);  // populate the Box-Muller cache
  DeviceCheckpoint cp;
  cp.soc = 0x1.fffffffffffffp-1;  // just under 1.0
  cp.days_run = 17;
  cp.rng = rng.snapshot();
  cp.outcome.device_id = 0xFEEDFACEull;
  cp.outcome.profile = WearerProfile::kNightShift;
  cp.outcome.policy = PolicyKind::kEnergyNeutral;
  cp.outcome.days_run = 17;
  cp.outcome.detections_attempted = 12345;
  cp.outcome.detections_completed = 12000;
  cp.outcome.detections_skipped = 345;
  cp.outcome.harvested_j = 123.456789;
  cp.outcome.consumed_j = -0.0;
  cp.outcome.initial_soc = 0.0;
  cp.outcome.final_soc = 1.0;
  cp.outcome.min_soc = 1e-300;
  cp.outcome.detections_per_min = 0.25;
  cp.outcome.mean_intake_w = 3.5e-3;
  cp.outcome.self_sustaining = true;
  cp.outcome.class_counts = {7, 8, 9};
  cp.outcome.classified = 24;

  ByteWriter w;
  save_device_checkpoint(cp, w);
  EXPECT_EQ(w.size(), kDeviceCheckpointBytes);
  ByteReader r(w.data());
  const DeviceCheckpoint loaded = load_device_checkpoint(r);
  EXPECT_EQ(r.remaining(), 0u);
  ByteWriter w2;
  save_device_checkpoint(loaded, w2);
  EXPECT_EQ(w.data(), w2.data());
}

TEST(DeviceCheckpoint, LoadRejectsCorruptEnums) {
  DeviceCheckpoint cp;
  ByteWriter w;
  save_device_checkpoint(cp, w);
  std::vector<std::uint8_t> bytes = w.data();
  // Profile byte sits right after soc(8) + days(4) + rng(4*8+8+8+1) + id(8).
  bytes[8 + 4 + 49 + 8] = 0xFF;
  ByteReader r(bytes);
  EXPECT_THROW(load_device_checkpoint(r), Error);
}

TEST(ShardSimulator, CheckpointResumeBitIdenticalToUninterrupted) {
  // Save at day k, resume in a *fresh* simulator, run to the horizon:
  // per-device rows and streamed aggregates must both match the
  // uninterrupted run byte for byte — for every archetype x policy variant
  // and batteries starting (and checkpointing) at the rails.
  constexpr int kTotalDays = 6;
  const std::vector<Scenario> scenarios = matrix_scenarios(kTotalDays);

  ShardSimulator uninterrupted;
  LongitudinalStats full_stats(kTotalDays);
  uninterrupted.begin(scenarios);
  while (uninterrupted.step_day(&full_stats)) {
  }
  EXPECT_EQ(uninterrupted.day(), kTotalDays);
  const std::string expected_rows = rows_of(uninterrupted);
  const std::string expected_stats = full_stats.serialize();

  for (int k : {1, 3, 5}) {
    ShardSimulator first;
    LongitudinalStats stats_a(kTotalDays);
    first.begin(scenarios);
    for (int d = 0; d < k; ++d) first.step_day(&stats_a);
    ASSERT_EQ(first.day(), k);
    ShardSimulator second;
    LongitudinalStats stats_b(kTotalDays);
    second.resume(scenarios, saved_records(first));
    EXPECT_EQ(second.day(), k);
    while (second.step_day(&stats_b)) {
    }
    EXPECT_EQ(expected_rows, rows_of(second)) << "split at day " << k;
    stats_a.merge(stats_b);
    EXPECT_EQ(expected_stats, stats_a.serialize()) << "split at day " << k;
  }
}

TEST(ShardSimulator, DoubleSplitMatchesToo) {
  // Two cuts (checkpoint chains): day 2 and day 4 of 6.
  constexpr int kTotalDays = 6;
  const std::vector<Scenario> scenarios = matrix_scenarios(kTotalDays);

  ShardSimulator uninterrupted;
  uninterrupted.begin(scenarios);
  while (uninterrupted.step_day()) {
  }
  const std::string expected = rows_of(uninterrupted);

  ShardSimulator a;
  a.begin(scenarios);
  a.step_day();
  a.step_day();
  ShardSimulator b;
  b.resume(scenarios, saved_records(a));
  b.step_day();
  b.step_day();
  ShardSimulator c;
  c.resume(scenarios, saved_records(b));
  while (c.step_day()) {
  }
  EXPECT_EQ(expected, rows_of(c));
}

TEST(ShardSimulator, ResumeValidatesCheckpointsAgainstScenarios) {
  const std::vector<Scenario> scenarios = matrix_scenarios(3);
  ShardSimulator sim;
  sim.begin(scenarios);
  sim.step_day();
  const std::vector<std::uint8_t> records = saved_records(sim);
  const std::vector<DeviceCheckpoint> cps = decode_records(records);
  ASSERT_EQ(cps.size(), scenarios.size());
  ASSERT_EQ(encode_records(cps), records);

  // One record short: whole records, but not one per scenario.
  const std::vector<std::uint8_t> wrong_count(
      records.begin(), records.end() - static_cast<std::ptrdiff_t>(kDeviceCheckpointBytes));
  expect_resume_error(scenarios, wrong_count, "checkpoint/scenario count mismatch");

  std::vector<DeviceCheckpoint> wrong_device = cps;
  wrong_device[0].outcome.device_id += 1;
  expect_resume_error(scenarios, encode_records(wrong_device),
                      "checkpoint is for a different device");

  std::vector<DeviceCheckpoint> wrong_seed = cps;
  wrong_seed[2].rng.seed ^= 1;
  expect_resume_error(scenarios, encode_records(wrong_seed),
                      "checkpoint RNG does not match the scenario");

  std::vector<DeviceCheckpoint> torn = cps;
  torn[1].days_run += 1;  // lane ahead of the shard clock
  expect_resume_error(scenarios, encode_records(torn),
                      "inconsistent per-device day counts");

  std::vector<DeviceCheckpoint> behind = cps;
  behind.back().days_run = 0;  // lane behind the shard clock, short of its horizon
  expect_resume_error(scenarios, encode_records(behind),
                      "inconsistent per-device day counts");

  std::vector<DeviceCheckpoint> past = cps;
  for (DeviceCheckpoint& cp : past) cp.days_run = 4;  // the scenarios run 3 days
  expect_resume_error(scenarios, encode_records(past),
                      "checkpoint is past the scenario horizon");
}

TEST(ShardSimulator, ResumeRejectsTruncatedRecordStream) {
  // A stream cut inside a record (the tail of a short read) must throw, not
  // decode the partial record or leave the last lane at its fresh state.
  const std::vector<Scenario> scenarios = matrix_scenarios(3);
  ShardSimulator sim;
  sim.begin(scenarios);
  sim.step_day();
  const std::vector<std::uint8_t> records = saved_records(sim);
  for (const std::size_t cut : {std::size_t{1}, kDeviceCheckpointBytes - 1,
                                kDeviceCheckpointBytes + 7, records.size() - 1}) {
    const std::vector<std::uint8_t> truncated(
        records.begin(), records.end() - static_cast<std::ptrdiff_t>(cut));
    expect_resume_error(scenarios, truncated, "truncated checkpoint record");
  }
  expect_resume_error(scenarios, {}, "checkpoint/scenario count mismatch");
}

TEST(ShardSimulator, ResumeAcceptsLanesThatFinishedEarly) {
  // Lanes with a shorter scenario stop early and keep their last state; a
  // cut after they finished saves their own day count, not the shard clock.
  std::vector<Scenario> scenarios = matrix_scenarios(4);
  scenarios[3].days = 1;
  scenarios[7].days = 2;
  ShardSimulator uninterrupted;
  uninterrupted.begin(scenarios);
  while (uninterrupted.step_day()) {
  }
  ShardSimulator first;
  first.begin(scenarios);
  first.step_day();
  first.step_day();
  first.step_day();
  ShardSimulator second;
  second.resume(scenarios, saved_records(first));
  EXPECT_EQ(second.day(), 3);
  while (second.step_day()) {
  }
  EXPECT_EQ(rows_of(uninterrupted), rows_of(second));
}

TEST(ShardSimulator, CheckpointResumeWithClassificationApp) {
  // The app path consumes extra RNG draws (window picks) and folds labels
  // into the outcome; a mid-run cut must preserve both.
  const core::StressDetectionApp& app = test::tiny_app();

  std::vector<Scenario> scenarios;
  for (std::uint64_t id = 0; id < 12; ++id) {
    Scenario s = sample_scenario(2020, id);
    s.days = 4;
    scenarios.push_back(s);
  }

  ShardSimulator uninterrupted(&app);
  uninterrupted.begin(scenarios);
  while (uninterrupted.step_day()) {
  }
  const std::string expected = rows_of(uninterrupted);
  std::uint64_t classified = 0;
  for (const DeviceOutcome& o : uninterrupted.outcomes()) classified += o.classified;
  EXPECT_GT(classified, 0u);

  ShardSimulator first(&app);
  first.begin(scenarios);
  first.step_day();
  first.step_day();
  ShardSimulator second(&app);
  second.resume(scenarios, saved_records(first));
  while (second.step_day()) {
  }
  EXPECT_EQ(expected, rows_of(second));
}

TEST(LongitudinalRunner, MatchesPerDeviceOracle) {
  // Same population spec through the longitudinal runner (with row retention)
  // and the per-device engine-path loop: per-device rows must agree byte for
  // byte — the lockstep day loop is the same simulation, re-timed.
  LongitudinalConfig config = test::population(40, 2020, 3, 1, 16);
  config.record_outcomes = true;
  const LongitudinalResult longitudinal = LongitudinalRunner(config).run();

  const FleetStats oracle =
      run_per_device_oracle(2020, 40, 3, nullptr, DayDriver::kEngine);
  EXPECT_EQ(oracle.serialize(), longitudinal.outcomes.serialize());
  EXPECT_EQ(longitudinal.stats.day_counters(3).devices, 40u);
}

TEST(LongitudinalRunner, ByteIdenticalAcrossThreadsAndShardSizes) {
  LongitudinalConfig base;
  base.num_devices = 300;
  base.fleet_seed = 777;
  base.days = 4;
  base.shard_size = 64;
  base.threads = 1;
  const std::string reference = LongitudinalRunner(base).run().stats.serialize();

  struct Variant {
    int threads;
    std::size_t shard;
  };
  for (const Variant v : {Variant{2, 64}, Variant{8, 23}, Variant{2, 300},
                          Variant{8, 1}}) {
    LongitudinalConfig config = base;
    config.threads = v.threads;
    config.shard_size = v.shard;
    EXPECT_EQ(reference, LongitudinalRunner(config).run().stats.serialize())
        << "threads=" << v.threads << " shard=" << v.shard;
  }
}

TEST(LongitudinalRunner, CheckpointFileResumeBitIdentical) {
  LongitudinalConfig base;
  base.num_devices = 200;
  base.fleet_seed = 99;
  base.days = 6;
  base.shard_size = 32;
  base.threads = 2;
  base.record_outcomes = true;
  const LongitudinalResult full = LongitudinalRunner(base).run();
  const std::string expected_stats = full.stats.serialize();
  const std::string expected_rows = full.outcomes.serialize();

  const std::string ckpt = testing::TempDir() + "iw_long_resume.ckpt";
  LongitudinalConfig leg1 = base;
  leg1.record_outcomes = false;
  leg1.checkpoint_path = ckpt;
  leg1.checkpoint_day = 2;
  const LongitudinalResult partial = LongitudinalRunner(leg1).run();
  EXPECT_EQ(partial.end_day, 2);

  // Resume with a different thread count and shard size: both the streamed
  // aggregates (banked + new days) and the per-device rows must match the
  // uninterrupted run.
  LongitudinalConfig leg2 = base;
  leg2.resume_path = ckpt;
  leg2.threads = 4;
  leg2.shard_size = 17;
  const LongitudinalResult resumed = LongitudinalRunner(leg2).run();
  EXPECT_EQ(resumed.start_day, 2);
  EXPECT_EQ(resumed.end_day, 6);
  EXPECT_EQ(expected_stats, resumed.stats.serialize());
  EXPECT_EQ(expected_rows, resumed.outcomes.serialize());
  std::remove(ckpt.c_str());
}

TEST(LongitudinalRunner, CheckpointChainMatches) {
  // checkpoint@2 -> resume+checkpoint@4 -> resume to 6, vs one shot.
  LongitudinalConfig base;
  base.num_devices = 120;
  base.fleet_seed = 41;
  base.days = 6;
  base.shard_size = 50;
  base.threads = 2;
  const std::string expected = LongitudinalRunner(base).run().stats.serialize();

  const std::string ckpt_a = testing::TempDir() + "iw_long_chain_a.ckpt";
  const std::string ckpt_b = testing::TempDir() + "iw_long_chain_b.ckpt";
  LongitudinalConfig leg1 = base;
  leg1.checkpoint_path = ckpt_a;
  leg1.checkpoint_day = 2;
  LongitudinalRunner(leg1).run();
  LongitudinalConfig leg2 = base;
  leg2.resume_path = ckpt_a;
  leg2.checkpoint_path = ckpt_b;
  leg2.checkpoint_day = 4;
  leg2.threads = 1;
  LongitudinalRunner(leg2).run();
  LongitudinalConfig leg3 = base;
  leg3.resume_path = ckpt_b;
  leg3.threads = 4;
  EXPECT_EQ(expected, LongitudinalRunner(leg3).run().stats.serialize());
  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());
}

TEST(LongitudinalRunner, CheckpointOverAnExistingFileMatchesAFreshPath) {
  // The runner replaces an existing regular file rather than truncating it
  // in place; the bytes must be those of a checkpoint written to a path that
  // did not exist, with nothing left over from the longer file it replaced.
  // A symlink is still written through to its target.
  LongitudinalConfig base;
  base.num_devices = 60;
  base.fleet_seed = 8;
  base.days = 3;
  base.checkpoint_day = 1;
  const std::string fresh = testing::TempDir() + "iw_long_fresh.ckpt";
  const std::string over = testing::TempDir() + "iw_long_over.ckpt";
  const std::string link = testing::TempDir() + "iw_long_link.ckpt";
  std::remove(fresh.c_str());
  std::remove(link.c_str());
  LongitudinalConfig leg = base;
  leg.checkpoint_path = fresh;
  LongitudinalRunner(leg).run();
  const std::string expected = file_bytes(fresh);
  ASSERT_FALSE(expected.empty());

  std::ofstream(over, std::ios::binary) << std::string(expected.size() * 2, 'x');
  leg.checkpoint_path = over;
  LongitudinalRunner(leg).run();
  EXPECT_EQ(expected, file_bytes(over));

  std::ofstream(over, std::ios::binary) << "stale";
  std::filesystem::create_symlink(over, link);
  leg.checkpoint_path = link;
  LongitudinalRunner(leg).run();
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  EXPECT_EQ(expected, file_bytes(over));
  std::remove(fresh.c_str());
  std::remove(over.c_str());
  std::remove(link.c_str());
}

TEST(LongitudinalRunner, ResumeRejectsMismatchedPopulation) {
  LongitudinalConfig base;
  base.num_devices = 40;
  base.fleet_seed = 5;
  base.days = 4;
  base.shard_size = 16;
  const std::string ckpt = testing::TempDir() + "iw_long_reject.ckpt";
  LongitudinalConfig leg1 = base;
  leg1.checkpoint_path = ckpt;
  leg1.checkpoint_day = 2;
  LongitudinalRunner(leg1).run();

  LongitudinalConfig wrong_seed = base;
  wrong_seed.resume_path = ckpt;
  wrong_seed.fleet_seed = 6;
  EXPECT_THROW(LongitudinalRunner(wrong_seed).run(), Error);

  LongitudinalConfig wrong_pop = base;
  wrong_pop.resume_path = ckpt;
  wrong_pop.num_devices = 41;
  EXPECT_THROW(LongitudinalRunner(wrong_pop).run(), Error);

  LongitudinalConfig wrong_days = base;
  wrong_days.resume_path = ckpt;
  wrong_days.days = 5;
  EXPECT_THROW(LongitudinalRunner(wrong_days).run(), Error);

  LongitudinalConfig no_progress = base;
  no_progress.resume_path = ckpt;
  no_progress.checkpoint_path = ckpt + ".next";
  no_progress.checkpoint_day = 2;  // == resumed day: nothing to simulate
  EXPECT_THROW(LongitudinalRunner(no_progress).run(), Error);
  std::remove(ckpt.c_str());
}

TEST(LongitudinalRunner, RefusesToCheckpointOverItsResumeFile) {
  // Opening the checkpoint output truncates it, so writing it over the resume
  // file would destroy the banked state before any worker read it. The same
  // spelling and another path to the same file are both refused, and the
  // file is left byte-identical.
  LongitudinalConfig base;
  base.num_devices = 40;
  base.fleet_seed = 5;
  base.days = 4;
  const std::string ckpt = testing::TempDir() + "iw_long_same_path.ckpt";
  LongitudinalConfig leg1 = base;
  leg1.checkpoint_path = ckpt;
  leg1.checkpoint_day = 2;
  LongitudinalRunner(leg1).run();
  const std::string banked = file_bytes(ckpt);
  ASSERT_FALSE(banked.empty());

  for (const std::string& out : {ckpt, testing::TempDir() + "./iw_long_same_path.ckpt"}) {
    LongitudinalConfig leg2 = base;
    leg2.resume_path = ckpt;
    leg2.checkpoint_path = out;
    leg2.checkpoint_day = 3;
    EXPECT_THROW(LongitudinalRunner(leg2).run(), Error) << out;
    EXPECT_EQ(banked, file_bytes(ckpt)) << out;
  }
  std::remove(ckpt.c_str());
}

TEST(LongitudinalRunner, ValidatesConfig) {
  LongitudinalConfig config;
  config.num_devices = 0;
  EXPECT_THROW(LongitudinalRunner{config}, Error);
  config = LongitudinalConfig{};
  config.checkpoint_day = 3;  // day without a path
  EXPECT_THROW(LongitudinalRunner{config}, Error);
  config = LongitudinalConfig{};
  config.checkpoint_path = "x.ckpt";
  config.checkpoint_day = 0;  // path without a day
  EXPECT_THROW(LongitudinalRunner{config}, Error);
  config = LongitudinalConfig{};
  config.checkpoint_path = "x.ckpt";
  config.checkpoint_day = 99;  // past the horizon
  config.days = 10;
  EXPECT_THROW(LongitudinalRunner{config}, Error);
}

}  // namespace
}  // namespace iw::fleet
