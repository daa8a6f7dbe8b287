#include "fleet/longitudinal/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "platform/detection_cost.hpp"
#include "platform/scheduler.hpp"

namespace iw::fleet {

// ---------------------------------------------------------------------------
// ShardSimulator
//
// The fleet's day loop: every lane runs DeviceInstance's day
// (fleet/device_instance.cpp) in lockstep through the cohort day kernel, with
// the same per-lane setup, the same RNG draw order (lux factor for day d,
// then day d's window picks, then day d+1) and the same shared helpers
// (accumulate_day_outcome, draw_day_picks, tally_picks), so per device the
// bits match the per-device loop (run_per_device_oracle) on the same
// scenarios. Days are advanced one step_day() at a time so the runner can
// cut (checkpoint) or splice (resume) the run at any day boundary, and each
// advanced day can stream into LongitudinalStats.
// ---------------------------------------------------------------------------

ShardSimulator::ShardSimulator(const core::StressDetectionApp* app) : app_(app) {
  if (app_ != nullptr) build_windows_by_level(*app_, windows_by_level_);
}

const platform::DetectionPolicy* ShardSimulator::policy_for(
    const Scenario& scenario) {
  // Fixed-rate devices run the kernel's plain periodic stream, exactly like
  // DeviceInstance (a FixedRatePolicy object would be bit-identical but pays
  // a virtual call per attempt).
  if (scenario.policy == PolicyKind::kFixedRate) return nullptr;
  for (const PooledPolicy& p : policies_) {
    if (p.kind == scenario.policy && p.period_s == scenario.detection_period_s) {
      return p.policy.get();
    }
  }
  policies_.push_back(PooledPolicy{scenario.policy, scenario.detection_period_s,
                                   make_policy(scenario)});
  return policies_.back().policy.get();
}

void ShardSimulator::begin(std::vector<Scenario> scenarios) {
  const std::size_t n = scenarios.size();
  ensure(n > 0, "ShardSimulator: need at least one scenario");
  scenarios_ = std::move(scenarios);
  rngs_.clear();
  scaled_profiles_.resize(std::max(scaled_profiles_.size(), n));
  configs_.resize(std::max(configs_.size(), n));
  results_.resize(std::max(results_.size(), n));
  lane_policy_.resize(std::max(lane_policy_.size(), n));
  outcomes_.resize(std::max(outcomes_.size(), n));
  socs_.resize(std::max(socs_.size(), n));
  cohort_.reserve_lanes(n);

  day_ = 0;
  max_days_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Scenario& s = scenarios_[i];
    ensure(s.days >= 1, "ShardSimulator: scenario needs at least one day");
    max_days_ = std::max(max_days_, s.days);
    rngs_.emplace_back(s.rng_seed);
    platform::DeviceConfig& config = configs_[i];
    config = platform::DeviceConfig{};
    config.detection = platform::make_detection_cost({});
    config.detection_period_s = s.detection_period_s;
    config.initial_soc = s.initial_soc;
    lane_policy_[i] = policy_for(s);
    DeviceOutcome& outcome = outcomes_[i];
    outcome = DeviceOutcome{};
    outcome.device_id = s.device_id;
    outcome.profile = s.profile;
    outcome.policy = s.policy;
    outcome.initial_soc = s.initial_soc;
    outcome.final_soc = s.initial_soc;
    socs_[i] = s.initial_soc;
  }
}

void ShardSimulator::resume(std::vector<Scenario> scenarios,
                            std::span<const std::uint8_t> records) {
  begin(std::move(scenarios));
  ensure(records.size() % kDeviceCheckpointBytes == 0,
         "ShardSimulator::resume: truncated checkpoint record");
  ensure(records.size() / kDeviceCheckpointBytes == scenarios_.size(),
         "ShardSimulator::resume: checkpoint/scenario count mismatch");
  // One pass decodes each record into its lane. The shard clock (the largest
  // day count) is known only at the end, so the day-count rule — every lane
  // is at the clock or was already done when saved, i.e. days_run ==
  // min(clock, scenario days) — is checked then: no lane may be past its own
  // horizon, and every lane short of it must sit at the clock.
  ByteReader reader(records);
  int resumed_day = 0;
  int short_day = std::numeric_limits<int>::max();  // min over lanes short of their horizon
  bool past_own_horizon = false;
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const DeviceCheckpoint cp = load_device_checkpoint(reader);
    const Scenario& s = scenarios_[i];
    ensure(cp.outcome.device_id == s.device_id,
           "ShardSimulator::resume: checkpoint is for a different device");
    ensure(cp.rng.seed == s.rng_seed,
           "ShardSimulator::resume: checkpoint RNG does not match the scenario");
    const int days_run = static_cast<int>(cp.days_run);
    resumed_day = std::max(resumed_day, days_run);
    if (days_run < s.days) short_day = std::min(short_day, days_run);
    past_own_horizon = past_own_horizon || days_run > s.days;
    socs_[i] = cp.soc;
    rngs_[i] = Rng::from_snapshot(cp.rng);
    outcomes_[i] = cp.outcome;
  }
  ensure(resumed_day <= max_days_,
         "ShardSimulator::resume: checkpoint is past the scenario horizon");
  ensure(!past_own_horizon && short_day >= resumed_day,
         "ShardSimulator::resume: inconsistent per-device day counts");
  day_ = resumed_day;
}

bool ShardSimulator::step_day(LongitudinalStats* sink) {
  if (day_ >= max_days_) return false;
  const int day = day_ + 1;
  const std::size_t n = scenarios_.size();
  members_.clear();
  active_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (day > scenarios_[i].days) continue;
    // Day-to-day weather/behaviour variation, from this device's own stream —
    // drawn in the same per-device order as DeviceInstance.
    const double lux_factor =
        std::exp(rngs_[i].normal(0.0, scenarios_[i].lux_sigma_day));
    build_day_profile_into(scenarios_[i], base_profile_);
    platform::scale_profile_lux_into(base_profile_, lux_factor,
                                     scaled_profiles_[i]);
    configs_[i].initial_soc = socs_[i];
    members_.push_back(platform::CohortMember{&configs_[i], &harvester_,
                                              &scaled_profiles_[i],
                                              lane_policy_[i], &results_[i]});
    active_.push_back(i);
  }
  cohort_.run_day(members_);

  for (const std::size_t i : active_) {
    const platform::DaySimulationResult& result = results_[i];
    socs_[i] = result.final_soc;
    accumulate_day_outcome(outcomes_[i], result, day);
    if (app_ != nullptr) {
      draw_day_picks(rngs_[i], scenarios_[i], windows_by_level_,
                     result.detections_completed, lane_picks_);
      tally_picks(*app_, lane_picks_, outcomes_[i]);
    }
  }

  if (sink != nullptr) {
    // Stream after classification so the day's app-window counts are in.
    for (const std::size_t i : active_) sink->record_device_day(day, outcomes_[i]);
  }
  day_ = day;
  return day_ < max_days_;
}

std::span<const DeviceOutcome> ShardSimulator::outcomes() const {
  return std::span<const DeviceOutcome>(outcomes_.data(), scenarios_.size());
}

void ShardSimulator::save(std::span<std::uint8_t> records) const {
  ensure(records.size() == scenarios_.size() * kDeviceCheckpointBytes,
         "ShardSimulator::save: record buffer does not fit the shard");
  // The codec appends to a ByteWriter; one record-sized writer is reused and
  // each record copied to its slot.
  ByteWriter record;
  record.reserve(kDeviceCheckpointBytes);
  std::uint8_t* slot = records.data();
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    DeviceCheckpoint cp;
    cp.soc = socs_[i];
    cp.days_run = static_cast<std::uint32_t>(std::min(day_, scenarios_[i].days));
    cp.rng = rngs_[i].snapshot();
    cp.outcome = outcomes_[i];
    record.clear();
    save_device_checkpoint(cp, record);
    slot = std::copy(record.data().begin(), record.data().end(), slot);
  }
}

// ---------------------------------------------------------------------------
// LongitudinalRunner
// ---------------------------------------------------------------------------

namespace {

/// ceil(n / d) without the n + d - 1 overflow.
std::uint64_t ceil_div(std::uint64_t n, std::uint64_t d) { return n / d + (n % d != 0); }

/// RAII FILE handle (workers each own their read handle; the save handle is
/// shared behind a mutex).
struct File {
  std::FILE* f = nullptr;
  explicit File(const char* path, const char* mode) : f(std::fopen(path, mode)) {}
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
};

void seek_to(std::FILE* f, std::uint64_t offset) {
  ensure(std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0,
         "checkpoint file: seek failed");
}

/// Serialized LongitudinalStats size for a shape — fixed given (days, bins),
/// which is what makes the checkpoint's device table offset computable
/// before any stats exist.
std::uint64_t stats_blob_bytes(int days, int soc_bins) {
  ByteWriter probe;
  LongitudinalStats(days, soc_bins).save(probe);
  return probe.size();
}

}  // namespace

ShardPlan plan_shards(std::uint64_t num_devices, int threads,
                      std::uint64_t max_shard_size) {
  const std::uint64_t n = num_devices;
  ensure(n > 0 && threads >= 1 && max_shard_size > 0,
         "plan_shards: need devices, threads and a positive shard cap");
  ShardPlan plan;
  plan.workers =
      static_cast<int>(std::min<std::uint64_t>(static_cast<std::uint64_t>(threads), n));
  // Smallest multiple of four claims per worker that respects the cap; past
  // one device per shard it is clamped to n (which is also overflow-free).
  const std::uint64_t unit = 4 * static_cast<std::uint64_t>(plan.workers);
  const std::uint64_t rounds = ceil_div(ceil_div(n, max_shard_size), unit);
  const std::uint64_t target = rounds > n / unit ? n : rounds * unit;
  plan.shard_size = ceil_div(n, target);
  plan.shards = ceil_div(n, plan.shard_size);
  ensure(plan.shard_size <= max_shard_size && plan.shards >= 1 &&
             (plan.shards - 1) * plan.shard_size < n &&
             n - (plan.shards - 1) * plan.shard_size <= plan.shard_size,
         "plan_shards: shards do not cover the population exactly");
  return plan;
}

LongitudinalRunner::LongitudinalRunner(LongitudinalConfig config)
    : config_(std::move(config)) {
  ensure(config_.num_devices > 0, "LongitudinalRunner: need at least one device");
  ensure(config_.first_device <=
             std::numeric_limits<std::uint64_t>::max() - config_.num_devices,
         "LongitudinalRunner: device id range overflows");
  ensure(config_.days >= 1, "LongitudinalRunner: need at least one day");
  ensure(config_.shard_size > 0, "LongitudinalRunner: shard size must be positive");
  ensure(config_.threads >= 1, "LongitudinalRunner: need at least one thread");
  ensure(config_.soc_bins >= 2, "LongitudinalRunner: need at least two SoC bins");
  if (!config_.checkpoint_path.empty()) {
    ensure(config_.checkpoint_day >= 1 && config_.checkpoint_day <= config_.days,
           "LongitudinalRunner: checkpoint_day must be in [1, days]");
  } else {
    ensure(config_.checkpoint_day == 0,
           "LongitudinalRunner: checkpoint_day needs a checkpoint_path");
  }
}

LongitudinalResult LongitudinalRunner::run() const {
  const LongitudinalConfig& cfg = config_;

  // --- Resume header + banked aggregates -----------------------------------
  int start_day = 0;
  LongitudinalStats banked(cfg.days, cfg.soc_bins);
  std::uint64_t resume_table_off = 0;
  const bool resuming = !cfg.resume_path.empty();
  if (resuming) {
    File in(cfg.resume_path.c_str(), "rb");
    ensure(in.f != nullptr, "LongitudinalRunner: cannot open resume checkpoint");
    std::vector<std::uint8_t> head(kCheckpointHeaderBytes);
    ensure(std::fread(head.data(), 1, head.size(), in.f) == head.size(),
           "LongitudinalRunner: truncated checkpoint header");
    ByteReader head_reader(head);
    const CheckpointHeader header = load_checkpoint_header(head_reader);
    ensure(header.fleet_seed == cfg.fleet_seed &&
               header.first_device == cfg.first_device &&
               header.num_devices == cfg.num_devices,
           "LongitudinalRunner: checkpoint is for a different population");
    ensure(header.days_total == static_cast<std::uint32_t>(cfg.days) &&
               header.soc_bins == static_cast<std::uint32_t>(cfg.soc_bins),
           "LongitudinalRunner: checkpoint shape does not match the config");
    std::vector<std::uint8_t> blob(header.stats_bytes);
    ensure(std::fread(blob.data(), 1, blob.size(), in.f) == blob.size(),
           "LongitudinalRunner: truncated checkpoint aggregates");
    ByteReader blob_reader(blob);
    banked = LongitudinalStats::load(blob_reader);
    ensure(banked.days() == cfg.days && banked.soc_bins() == cfg.soc_bins,
           "LongitudinalRunner: checkpoint aggregates shape mismatch");
    start_day = static_cast<int>(header.day);
    resume_table_off = kCheckpointHeaderBytes + header.stats_bytes;
  }

  const int stop_day = cfg.checkpoint_day > 0 ? cfg.checkpoint_day : cfg.days;
  ensure(start_day < stop_day,
         "LongitudinalRunner: nothing to simulate (resume day >= stop day)");

  // --- Checkpoint output file ----------------------------------------------
  const bool saving = !cfg.checkpoint_path.empty();
  std::uint64_t save_table_off = 0;
  std::unique_ptr<File> save_file;
  std::mutex save_mutex;
  if (saving && resuming) {
    // Opening the output truncates it; if it is the resume file, the banked
    // state would be gone before any worker read it.
    // The resume file exists (its header was just read), so a checkpoint
    // path that does not exist yet names another file (equivalent() fails).
    std::error_code ec;
    ensure(!std::filesystem::equivalent(cfg.resume_path, cfg.checkpoint_path, ec),
           "LongitudinalRunner: checkpoint path is the resume checkpoint");
  }
  if (saving) {
    save_table_off =
        kCheckpointHeaderBytes + stats_blob_bytes(cfg.days, cfg.soc_bins);
    // Unlink a regular file before creating its replacement: truncating a
    // recently written file in place makes close() wait for the old data to
    // be flushed (hundreds of ms per leg on ext4), while a new inode does
    // not. Anything else (a symlink, a device, /dev/null) is opened in place
    // as before. A crash mid-write still leaves a file that fails its magic
    // check, because the header is written last.
    std::error_code ec;
    if (std::filesystem::is_regular_file(
            std::filesystem::symlink_status(cfg.checkpoint_path, ec))) {
      std::filesystem::remove(cfg.checkpoint_path, ec);
    }
    save_file = std::make_unique<File>(cfg.checkpoint_path.c_str(), "wb");
    ensure(save_file->f != nullptr,
           "LongitudinalRunner: cannot create checkpoint file");
  }

  // --- Sharded run ----------------------------------------------------------
  const std::uint64_t n = cfg.num_devices;
  const ShardPlan plan = plan_shards(n, cfg.threads, cfg.shard_size);
  const std::uint64_t shard = plan.shard_size;
  const std::uint64_t num_shards = plan.shards;
  const int threads = plan.workers;

  // Worker-local streamed aggregates: merged after the join. The merge is
  // exact integer addition, so the reduction is byte-identical no matter how
  // shards were distributed across workers or in what order they finished.
  std::vector<LongitudinalStats> worker_stats;
  worker_stats.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) worker_stats.emplace_back(cfg.days, cfg.soc_bins);

  // Per-shard outcome rows (only populated under record_outcomes), merged in
  // shard order, so the reduction order is fixed as well.
  std::vector<FleetStats> outcome_shards(
      cfg.record_outcomes ? static_cast<std::size_t>(num_shards) : 0);

  std::atomic<std::uint64_t> next_shard{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&](int worker_id) {
    try {
      ShardSimulator sim(cfg.app);
      LongitudinalStats& local = worker_stats[static_cast<std::size_t>(worker_id)];

      std::unique_ptr<File> resume_file;
      if (resuming) {
        resume_file = std::make_unique<File>(cfg.resume_path.c_str(), "rb");
        ensure(resume_file->f != nullptr,
               "LongitudinalRunner: cannot reopen resume checkpoint");
      }

      // One record buffer per worker (the first shard is the largest, so it
      // is allocated once): it holds a shard's resumed records until they
      // are decoded into the lanes, then the records the shard saves.
      std::vector<std::uint8_t> records;

      while (true) {
        const std::uint64_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
        if (s >= num_shards || failed.load(std::memory_order_relaxed)) break;
        const std::uint64_t begin = cfg.first_device + s * shard;
        const std::uint64_t end = begin + std::min(shard, n - s * shard);
        const std::size_t count = static_cast<std::size_t>(end - begin);
        const std::uint64_t table_pos = (begin - cfg.first_device) * kDeviceCheckpointBytes;

        // Shard generation: re-sampled from the substream, owned by the
        // simulator until the next shard replaces it.
        std::vector<Scenario> scenarios;
        scenarios.reserve(count);
        for (std::uint64_t id = begin; id < end; ++id) {
          Scenario scenario = sample_scenario(cfg.fleet_seed, id);
          scenario.days = cfg.days;
          scenarios.push_back(scenario);
        }
        if (resuming || saving) records.resize(count * kDeviceCheckpointBytes);

        if (resuming) {
          seek_to(resume_file->f, resume_table_off + table_pos);
          ensure(std::fread(records.data(), 1, records.size(), resume_file->f) ==
                     records.size(),
                 "LongitudinalRunner: truncated checkpoint records");
          sim.resume(std::move(scenarios), records);
        } else {
          sim.begin(std::move(scenarios));
        }

        for (int d = start_day; d < stop_day; ++d) sim.step_day(&local);

        if (saving) {
          sim.save(records);
          std::lock_guard<std::mutex> lock(save_mutex);
          seek_to(save_file->f, save_table_off + table_pos);
          ensure(std::fwrite(records.data(), 1, records.size(), save_file->f) ==
                     records.size(),
                 "LongitudinalRunner: checkpoint record write failed");
        }

        if (cfg.record_outcomes) {
          FleetStats& rows = outcome_shards[static_cast<std::size_t>(s)];
          for (const DeviceOutcome& outcome : sim.outcomes()) rows.add(outcome);
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker, i);
    for (std::thread& t : pool) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (first_error) std::rethrow_exception(first_error);

  LongitudinalResult result;
  result.stats = std::move(banked);
  for (const LongitudinalStats& local : worker_stats) result.stats.merge(local);

  if (saving) {
    CheckpointHeader header;
    header.fleet_seed = cfg.fleet_seed;
    header.first_device = cfg.first_device;
    header.num_devices = cfg.num_devices;
    header.days_total = static_cast<std::uint32_t>(cfg.days);
    header.day = static_cast<std::uint32_t>(stop_day);
    header.soc_bins = static_cast<std::uint32_t>(cfg.soc_bins);
    ByteWriter head;
    ByteWriter blob;
    result.stats.save(blob);
    header.stats_bytes = blob.size();
    save_checkpoint_header(header, head);
    ensure(kCheckpointHeaderBytes + blob.size() == save_table_off,
           "LongitudinalRunner: checkpoint header size drifted");
    seek_to(save_file->f, 0);
    ensure(std::fwrite(head.data().data(), 1, head.size(), save_file->f) ==
               head.size(),
           "LongitudinalRunner: checkpoint header write failed");
    ensure(std::fwrite(blob.data().data(), 1, blob.size(), save_file->f) ==
               blob.size(),
           "LongitudinalRunner: checkpoint aggregate write failed");
    save_file.reset();  // flush + close before the caller resumes from it
  }

  if (cfg.record_outcomes) {
    for (const FleetStats& rows : outcome_shards) result.outcomes.merge(rows);
  }

  result.devices = static_cast<std::size_t>(n);
  result.start_day = start_day;
  result.end_day = stop_day;
  result.threads_used = threads;
  result.shard_size = shard;
  result.shards = num_shards;
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  const double device_days =
      static_cast<double>(n) * static_cast<double>(stop_day - start_day);
  result.device_days_per_sec =
      result.wall_s > 0.0 ? device_days / result.wall_s : 0.0;
  return result;
}

}  // namespace iw::fleet
