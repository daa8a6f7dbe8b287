// Fleet workload: the iw_fleetd path (LongitudinalRunner over a sampled
// population, 4 worker threads, program-default shard size and SIMD tier).
//
// Untraced legs call LongitudinalRunner::run, the product entry point.
// Traced legs replay that call from this file, public function by public
// function (sample_scenario, build_day_profile_into, scale_profile_lux_into,
// CohortDayState::run_day, draw_day_picks, FixedBatch::classify,
// accumulate_day_outcome, LongitudinalStats::record_device_day / merge /
// save / load, the checkpoint record and header codecs), with a span around
// each call. The replayed chain's last checkpoint must be byte-identical to
// an uninterrupted product run's, so a replay that drifts from the runner
// fails the correctness gate instead of reporting numbers for different work.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "core/app.hpp"
#include "fleet/longitudinal/runner.hpp"
#include "platform/detection_cost.hpp"
#include "platform/scheduler.hpp"

namespace perfbench {
namespace {

using iw::fleet::DeviceCheckpoint;
using iw::fleet::DeviceOutcome;
using iw::fleet::LongitudinalConfig;
using iw::fleet::LongitudinalStats;
using iw::fleet::Scenario;

constexpr std::uint64_t kDevices = 20000;
constexpr int kThreads = 4;
/// Setup repetitions before the timed phase, and again after it.
constexpr int kSetupReps = 6;

/// What one traced pass measured, summed over its workers.
struct PassTrace {
  Spans spans;
  std::uint64_t lane_days = 0;
  std::uint64_t rows = 0;
  std::uint64_t shape_cache = 0;  // max over workers
  std::uint64_t gate_cache = 0;   // max over workers
  std::uint64_t shards = 0;
  std::uint64_t rounds = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::vector<double> shard_busy;

  void merge(const PassTrace& w) {
    spans.merge(w.spans);
    lane_days += w.lane_days;
    rows += w.rows;
    shape_cache = std::max(shape_cache, w.shape_cache);
    gate_cache = std::max(gate_cache, w.gate_cache);
    shards += w.shards;
    rounds += w.rounds;
    bytes_read += w.bytes_read;
    bytes_written += w.bytes_written;
    shard_busy.insert(shard_busy.end(), w.shard_busy.begin(), w.shard_busy.end());
  }
};

/// Spans that sit inside a shard's busy interval (setup through its last
/// step_day); what they leave uncovered is reported as shard.other_s.
constexpr const char* kShardChildren[] = {
    "profile.build_s", "profile.scale_s", "cohort.run_day_s",
    "classify.picks_s", "classify.batch_s", "stats.fold_s"};

// ---------------------------------------------------------------------------
// Replay of iw::fleet::ShardSimulator (src/fleet/longitudinal/runner.cpp):
// same per-lane setup, same RNG draw order, same shared helpers. The
// product's single per-lane loop after run_day is split into a fold loop
// and a pick-drawing loop so each gets its own span; both touch only their
// own lane's state, so the order of effects per lane is unchanged.
// ---------------------------------------------------------------------------
class TracedShard {
 public:
  explicit TracedShard(const iw::core::StressDetectionApp* app) : app_(app) {
    if (app_ != nullptr) {
      iw::fleet::build_windows_by_level(*app_, windows_by_level_);
      batch_ = std::make_unique<iw::nn::FixedBatch>(app_->quantized());
    }
  }

  void setup(std::span<const Scenario> scenarios, PassTrace& t) {
    const std::size_t n = scenarios.size();
    scenarios_.assign(scenarios.begin(), scenarios.end());
    rngs_.clear();
    base_.resize(std::max(base_.size(), n));
    scaled_.resize(std::max(scaled_.size(), n));
    configs_.resize(std::max(configs_.size(), n));
    results_.resize(std::max(results_.size(), n));
    lane_policy_.resize(std::max(lane_policy_.size(), n));
    outcomes_.resize(std::max(outcomes_.size(), n));
    socs_.resize(std::max(socs_.size(), n));
    cohort_.reserve_lanes(n);
    day_ = 0;
    {
      // A loop of its own (the product interleaves it with the lane setup
      // below; each profile depends only on its own scenario).
      Span span(t.spans, "profile.build_s");
      for (std::size_t i = 0; i < n; ++i) {
        iw::fleet::build_day_profile_into(scenarios_[i], base_[i]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Scenario& s = scenarios_[i];
      rngs_.emplace_back(s.rng_seed);
      iw::platform::DeviceConfig& config = configs_[i];
      config = iw::platform::DeviceConfig{};
      config.detection = iw::platform::make_detection_cost({});
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

  void resume(std::span<const DeviceCheckpoint> checkpoints) {
    iw::ensure(checkpoints.size() == scenarios_.size(), "replay: checkpoint count");
    int resumed_day = 0;
    for (const DeviceCheckpoint& cp : checkpoints) {
      resumed_day = std::max(resumed_day, static_cast<int>(cp.days_run));
    }
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      const DeviceCheckpoint& cp = checkpoints[i];
      iw::ensure(cp.outcome.device_id == scenarios_[i].device_id &&
                     cp.rng.seed == scenarios_[i].rng_seed,
                 "replay: checkpoint is for a different device");
      socs_[i] = cp.soc;
      rngs_[i] = iw::Rng::from_snapshot(cp.rng);
      outcomes_[i] = cp.outcome;
    }
    day_ = resumed_day;
  }

  void step_day(LongitudinalStats& sink, PassTrace& t) {
    const int day = day_ + 1;
    {
      Span span(t.spans, "profile.scale_s");
      members_.clear();
      active_.clear();
      for (std::size_t i = 0; i < scenarios_.size(); ++i) {
        if (day > scenarios_[i].days) continue;
        const double lux_factor =
            std::exp(rngs_[i].normal(0.0, scenarios_[i].lux_sigma_day));
        iw::platform::scale_profile_lux_into(base_[i], lux_factor, scaled_[i]);
        configs_[i].initial_soc = socs_[i];
        members_.push_back(iw::platform::CohortMember{
            &configs_[i], &harvester_, &scaled_[i], lane_policy_[i], &results_[i]});
        active_.push_back(i);
      }
    }
    {
      Span span(t.spans, "cohort.run_day_s");
      cohort_.run_day(members_);
    }
    t.lane_days += active_.size();
    {
      Span span(t.spans, "stats.fold_s");
      for (const std::size_t i : active_) {
        socs_[i] = results_[i].final_soc;
        iw::fleet::accumulate_day_outcome(outcomes_[i], results_[i], day);
      }
    }
    if (app_ != nullptr) classify(t);
    {
      Span span(t.spans, "stats.fold_s");
      for (const std::size_t i : active_) sink.record_device_day(day, outcomes_[i]);
    }
    day_ = day;
  }

  void save_checkpoints(std::vector<DeviceCheckpoint>& out) const {
    out.clear();
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      DeviceCheckpoint cp;
      cp.soc = socs_[i];
      cp.days_run = static_cast<std::uint32_t>(std::min(day_, scenarios_[i].days));
      cp.rng = rngs_[i].snapshot();
      cp.outcome = outcomes_[i];
      out.push_back(cp);
    }
  }

  std::size_t shape_cache_size() const { return cohort_.shape_cache_size(); }
  std::size_t gate_cache_size() const { return cohort_.gate_cache_size(); }

 private:
  const iw::platform::DetectionPolicy* policy_for(const Scenario& s) {
    if (s.policy == iw::fleet::PolicyKind::kFixedRate) return nullptr;
    for (const Pooled& p : policies_) {
      if (p.kind == s.policy && p.period_s == s.detection_period_s) return p.policy.get();
    }
    policies_.push_back(Pooled{s.policy, s.detection_period_s, iw::fleet::make_policy(s)});
    return policies_.back().policy.get();
  }

  void classify(PassTrace& t) {
    {
      Span span(t.spans, "classify.picks_s");
      picks_.clear();
      pick_lane_.clear();
      for (const std::size_t i : active_) {
        iw::fleet::draw_day_picks(rngs_[i], scenarios_[i], windows_by_level_,
                                  results_[i].detections_completed, lane_picks_);
        for (const std::size_t pick : lane_picks_) {
          picks_.push_back(pick);
          pick_lane_.push_back(i);
        }
      }
    }
    if (picks_.empty()) return;
    Span span(t.spans, "classify.batch_s");
    const iw::nn::Dataset& test = app_->test_set();
    rows_.clear();
    for (const std::size_t pick : picks_) rows_.push_back(test.inputs[pick].data());
    labels_.resize(picks_.size());
    batch_->classify(rows_, labels_);
    for (std::size_t j = 0; j < picks_.size(); ++j) {
      DeviceOutcome& outcome = outcomes_[pick_lane_[j]];
      ++outcome.class_counts[std::min<std::size_t>(labels_[j], 2)];
      ++outcome.classified;
    }
    t.rows += picks_.size();
  }

  struct Pooled {
    iw::fleet::PolicyKind kind;
    double period_s;
    std::unique_ptr<iw::platform::DetectionPolicy> policy;
  };

  const iw::core::StressDetectionApp* app_;
  std::unique_ptr<iw::nn::FixedBatch> batch_;
  iw::hv::DualSourceHarvester harvester_ = iw::hv::DualSourceHarvester::calibrated();
  iw::platform::CohortDayState cohort_;
  std::vector<Pooled> policies_;
  std::array<std::vector<std::size_t>, 3> windows_by_level_;

  std::vector<Scenario> scenarios_;
  std::vector<iw::Rng> rngs_;
  std::vector<iw::hv::DayProfile> base_, scaled_;
  std::vector<iw::platform::DeviceConfig> configs_;
  std::vector<iw::platform::DaySimulationResult> results_;
  std::vector<const iw::platform::DetectionPolicy*> lane_policy_;
  std::vector<DeviceOutcome> outcomes_;
  std::vector<double> socs_;
  std::vector<iw::platform::CohortMember> members_;
  std::vector<std::size_t> active_;
  std::vector<std::size_t> lane_picks_, picks_, pick_lane_, labels_;
  std::vector<const float*> rows_;
  int day_ = 0;
};

struct File {
  std::FILE* f = nullptr;
  File(const std::string& path, const char* mode) : f(std::fopen(path.c_str(), mode)) {
    iw::ensure(f != nullptr, "replay: cannot open " + path);
  }
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  void read_at(std::uint64_t off, std::vector<std::uint8_t>& buf) const {
    iw::ensure(std::fseek(f, static_cast<long>(off), SEEK_SET) == 0 &&
                   std::fread(buf.data(), 1, buf.size(), f) == buf.size(),
               "replay: checkpoint read failed");
  }
  void write_at(std::uint64_t off, const std::vector<std::uint8_t>& buf) const {
    iw::ensure(std::fseek(f, static_cast<long>(off), SEEK_SET) == 0 &&
                   std::fwrite(buf.data(), 1, buf.size(), f) == buf.size(),
               "replay: checkpoint write failed");
  }
};

/// Replay of LongitudinalRunner::run for `cfg`, recording spans and counters
/// into `t`. Returns the reduced aggregates.
LongitudinalStats traced_run(const LongitudinalConfig& cfg, PassTrace& t) {
  Spans main;
  int start_day = 0;
  LongitudinalStats banked(cfg.days, cfg.soc_bins);
  std::uint64_t resume_table_off = 0;
  const bool resuming = !cfg.resume_path.empty();
  if (resuming) {
    std::vector<std::uint8_t> head(iw::fleet::kCheckpointHeaderBytes);
    std::vector<std::uint8_t> blob;
    iw::fleet::CheckpointHeader header;
    {
      Span span(main, "ckpt.read_s");
      File in(cfg.resume_path, "rb");
      in.read_at(0, head);
      iw::ByteReader reader(head);
      header = iw::fleet::load_checkpoint_header(reader);
      blob.resize(header.stats_bytes);
      in.read_at(head.size(), blob);
    }
    t.bytes_read += head.size() + blob.size();
    {
      Span span(main, "ckpt.stats_blob_s");
      iw::ByteReader reader(blob);
      banked = LongitudinalStats::load(reader);
    }
    start_day = static_cast<int>(header.day);
    resume_table_off = head.size() + header.stats_bytes;
  }
  const int stop_day = cfg.checkpoint_day > 0 ? cfg.checkpoint_day : cfg.days;

  const bool saving = !cfg.checkpoint_path.empty();
  std::uint64_t save_table_off = 0;
  std::unique_ptr<File> save_file;
  std::mutex save_mutex;
  if (saving) {
    Span span(main, "ckpt.write_s");
    iw::ByteWriter probe;
    LongitudinalStats(cfg.days, cfg.soc_bins).save(probe);
    save_table_off = iw::fleet::kCheckpointHeaderBytes + probe.size();
    save_file = std::make_unique<File>(cfg.checkpoint_path, "wb");
  }

  const std::uint64_t n = cfg.num_devices;
  const std::uint64_t shard = cfg.shard_size;
  const std::uint64_t num_shards = (n + shard - 1) / shard;
  const int threads = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(cfg.threads), num_shards));
  t.shards += num_shards;
  t.rounds += (num_shards + static_cast<std::uint64_t>(threads) - 1) /
              static_cast<std::uint64_t>(threads);

  std::vector<LongitudinalStats> worker_stats;
  std::vector<PassTrace> worker_trace(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) worker_stats.emplace_back(cfg.days, cfg.soc_bins);
  std::atomic<std::uint64_t> next_shard{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&](int id) {
    try {
      PassTrace& wt = worker_trace[static_cast<std::size_t>(id)];
      LongitudinalStats& local = worker_stats[static_cast<std::size_t>(id)];
      TracedShard sim(cfg.app);
      std::unique_ptr<File> resume_file;
      if (resuming) resume_file = std::make_unique<File>(cfg.resume_path, "rb");
      std::vector<Scenario> scenarios;
      std::vector<DeviceCheckpoint> checkpoints;
      std::vector<std::uint8_t> records;
      iw::ByteWriter writer;
      while (true) {
        const std::uint64_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
        if (s >= num_shards || failed.load(std::memory_order_relaxed)) break;
        const std::uint64_t begin = cfg.first_device + s * shard;
        const std::uint64_t end = std::min(cfg.first_device + n, begin + shard);
        const std::size_t count = static_cast<std::size_t>(end - begin);
        {
          Span span(wt.spans, "scenario.sample_s");
          scenarios.clear();
          for (std::uint64_t dev = begin; dev < end; ++dev) {
            Scenario scenario = iw::fleet::sample_scenario(cfg.fleet_seed, dev);
            scenario.days = cfg.days;
            scenarios.push_back(scenario);
          }
        }
        if (resuming) {
          Span span(wt.spans, "ckpt.read_s");
          records.resize(count * iw::fleet::kDeviceCheckpointBytes);
          resume_file->read_at(
              resume_table_off + (begin - cfg.first_device) * iw::fleet::kDeviceCheckpointBytes,
              records);
          iw::ByteReader reader(records);
          checkpoints.clear();
          for (std::size_t i = 0; i < count; ++i) {
            checkpoints.push_back(iw::fleet::load_device_checkpoint(reader));
          }
          wt.bytes_read += records.size();
        }
        const auto busy0 = Clock::now();
        sim.setup(scenarios, wt);
        if (resuming) sim.resume(checkpoints);
        for (int d = start_day; d < stop_day; ++d) sim.step_day(local, wt);
        wt.shard_busy.push_back(seconds_since(busy0));
        if (saving) {
          Span span(wt.spans, "ckpt.write_s");
          sim.save_checkpoints(checkpoints);
          writer.clear();
          for (const DeviceCheckpoint& cp : checkpoints) {
            iw::fleet::save_device_checkpoint(cp, writer);
          }
          std::lock_guard<std::mutex> lock(save_mutex);
          save_file->write_at(
              save_table_off + (begin - cfg.first_device) * iw::fleet::kDeviceCheckpointBytes,
              writer.data());
          wt.bytes_written += writer.size();
        }
      }
      wt.shape_cache = sim.shape_cache_size();
      wt.gate_cache = sim.gate_cache_size();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };
  {
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker, i);
    for (std::thread& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  for (const PassTrace& wt : worker_trace) t.merge(wt);

  LongitudinalStats stats = std::move(banked);
  {
    Span span(main, "stats.merge_s");
    for (const LongitudinalStats& local : worker_stats) stats.merge(local);
  }
  if (saving) {
    iw::ByteWriter blob;
    {
      Span span(main, "ckpt.stats_blob_s");
      stats.save(blob);
    }
    Span span(main, "ckpt.write_s");
    iw::fleet::CheckpointHeader header;
    header.fleet_seed = cfg.fleet_seed;
    header.first_device = cfg.first_device;
    header.num_devices = cfg.num_devices;
    header.days_total = static_cast<std::uint32_t>(cfg.days);
    header.day = static_cast<std::uint32_t>(stop_day);
    header.soc_bins = static_cast<std::uint32_t>(cfg.soc_bins);
    header.stats_bytes = blob.size();
    iw::ByteWriter head;
    iw::fleet::save_checkpoint_header(header, head);
    save_file->write_at(0, head.data());
    save_file->write_at(head.size(), blob.data());
    save_file.reset();
    t.bytes_written += head.size() + blob.size();
  }
  t.spans.merge(main);
  return stats;
}

// ---------------------------------------------------------------------------
// Workload plumbing.
// ---------------------------------------------------------------------------

/// One unit of timed work: a LongitudinalRunner::run call (untraced) or its
/// replay (traced) on `cfg`. Returns the aggregates.
LongitudinalStats run_pass(const LongitudinalConfig& cfg, PassTrace* trace) {
  if (trace != nullptr) return traced_run(cfg, *trace);
  return iw::fleet::LongitudinalRunner(cfg).run().stats;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  iw::ensure(static_cast<bool>(in), "cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Correctness gate on one pass's aggregates: every simulated day recorded
/// the whole population.
void check_days(Result& r, const LongitudinalStats& stats, int first_day, int last_day,
                const char* what) {
  for (int d = first_day; d <= last_day; ++d) {
    const std::uint64_t devices = stats.day_counters(d).devices;
    if (devices != kDevices) {
      r.fail(std::string(what) + ": day " + std::to_string(d) + " recorded " +
                 std::to_string(devices) + " devices, expected " + std::to_string(kDevices),
             kDevices);
    }
  }
}

/// Every span a traced pass records.
constexpr const char* kLayerSpans[] = {
    "scenario.sample_s", "profile.build_s", "profile.scale_s", "cohort.run_day_s",
    "classify.picks_s",  "classify.batch_s", "stats.fold_s",   "stats.merge_s",
    "ckpt.read_s",       "ckpt.write_s",     "ckpt.stats_blob_s"};

/// Per-pass layer metrics from `passes` traced passes.
void report_layers(Result& r, const PassTrace& t, int passes) {
  const double k = 1.0 / passes;
  for (const char* name : kLayerSpans) r.metric(name, t.spans.get(name) * k, "s");
  double busy = 0.0;
  for (const double b : t.shard_busy) busy += b;
  double children = 0.0;
  for (const char* name : kShardChildren) children += t.spans.get(name);
  r.metric("shard.other_s", (busy - children) * k, "s");
  r.metric("shard.busy_s_sum", busy * k, "s");
  // Busy spans of one pass, by shard: the slowest shard sets the pass time.
  const std::size_t per_pass = t.shard_busy.size() / static_cast<std::size_t>(passes);
  std::vector<double> maxima;
  for (int p = 0; p < passes; ++p) {
    const auto first = t.shard_busy.begin() + static_cast<long>(per_pass * p);
    maxima.push_back(*std::max_element(first, first + static_cast<long>(per_pass)));
  }
  r.metric("shard.busy_s_max", median(maxima), "s");
  r.metric("shard.busy_s_p50", median(t.shard_busy), "s");
  r.metric("cohort.lane_days", static_cast<double>(t.lane_days / passes), "count");
  r.metric("cohort.shape_cache", static_cast<double>(t.shape_cache), "count");
  r.metric("cohort.gate_cache", static_cast<double>(t.gate_cache), "count");
  r.metric("classify.rows", static_cast<double>(t.rows / passes), "count");
  r.metric("pool.shards", static_cast<double>(t.shards / passes), "count");
  r.metric("pool.rounds", static_cast<double>(t.rounds / passes), "count");
  r.metric("ckpt.bytes_read", static_cast<double>(t.bytes_read / passes), "B");
  r.metric("ckpt.bytes_written", static_cast<double>(t.bytes_written / passes), "B");
}

/// Deterministic counters of one leg, untraced or traced, from the aggregates
/// it returned. Keyed by the simulated day, so a leg is compared with other
/// legs (and runs) that simulated the same day.
void count_leg(Result& r, const LongitudinalStats& stats, int day) {
  const std::string d = ".day" + std::to_string(day);
  r.count("stats.digest" + d, fnv1a(stats.serialize()));
  r.count("cohort.lane_days" + d, stats.day_counters(day).devices);
  r.count("classify.rows" + d,
          stats.day_counters(day).classified - stats.day_counters(day - 1).classified);
}

/// Deterministic counters of one traced leg, as the replay counted them. The
/// lane-days and rows share their keys with count_leg, so the replay's counts
/// must equal the aggregates. Shards, rounds and checkpoint bytes do
/// not depend on the day (a checkpoint's size depends only on the population,
/// days and SoC bins).
void count_traced_leg(Result& r, const PassTrace& p, int day) {
  const std::string d = ".day" + std::to_string(day);
  r.count("cohort.lane_days" + d, p.lane_days);
  r.count("classify.rows" + d, p.rows);
  r.count("cohort.shape_cache" + d, p.shape_cache);
  r.count("cohort.gate_cache" + d, p.gate_cache);
  r.count("pool.shards", p.shards);
  r.count("pool.rounds", p.rounds);
  r.count("ckpt.bytes_read", p.bytes_read);
  r.count("ckpt.bytes_written", p.bytes_written);
}

}  // namespace

LayerMetrics fleet_layer_metrics() {
  LayerMetrics m;
  for (const char* name : kLayerSpans) m[name] = "s";
  for (const char* name : {"shard.other_s", "shard.busy_s_sum", "shard.busy_s_max",
                           "shard.busy_s_p50", "app.build_s"}) {
    m[name] = "s";
  }
  for (const char* name : {"cohort.lane_days", "cohort.shape_cache", "cohort.gate_cache",
                           "classify.rows", "pool.shards", "pool.rounds"}) {
    m[name] = "count";
  }
  m["ckpt.bytes_read"] = "B";
  m["ckpt.bytes_written"] = "B";
  m["trace.overhead_frac"] = "ratio";
  return m;
}

/// fleet_daily_resume: the service's daily cadence with the iw_fleetd --app
/// stress classifier. Every timed leg resumes yesterday's checkpoint,
/// simulates and classifies one day and writes today's checkpoint. Legs
/// chain day 1 -> 2 -> ... -> kDays, then restart from the day-1 checkpoint
/// made in setup, so every leg does the same kind of work.
Result run_fleet_daily_resume(const Options& o) {
  constexpr int kDays = 8;
  Result r;
  std::optional<iw::core::StressDetectionApp> app;
  std::vector<double> app_build;
  iw::core::AppConfig app_config;  // iw_fleetd's --app defaults
  app_config.dataset.subjects = 2;
  app_config.dataset.minutes_per_level = 2.0;
  app_config.training.max_epochs = 40;
  LongitudinalConfig base;
  base.num_devices = kDevices;
  base.fleet_seed = o.seed;
  base.days = kDays;
  base.threads = kThreads;
  const std::string dir = o.workdir + "/";
  const std::string day1 = dir + "day1.ckpt";
  const std::string finished = dir + "final.ckpt";

  // Setup: the app build, then day 1 of the population, checkpointed.
  const auto setup = [&] {
    const auto t0 = Clock::now();
    app.emplace(iw::core::StressDetectionApp::build(app_config));
    app_build.push_back(seconds_since(t0));
    base.app = &*app;
    LongitudinalConfig cfg = base;
    cfg.checkpoint_path = day1;
    cfg.checkpoint_day = 1;
    iw::fleet::LongitudinalRunner(cfg).run();
  };
  std::vector<double> setup_s;
  time_setup(kSetupReps, setup, setup_s);

  /// Leg `leg` of a chain: reads the file the previous leg wrote.
  const auto leg_config = [&](int leg) {
    const int from = 1 + leg % (kDays - 1);
    LongitudinalConfig cfg = base;
    cfg.resume_path = from == 1 ? day1 : dir + (leg % 2 == 0 ? "b.ckpt" : "a.ckpt");
    cfg.checkpoint_path = from + 1 == kDays ? finished : dir + (leg % 2 == 0 ? "a.ckpt" : "b.ckpt");
    cfg.checkpoint_day = from + 1;
    return cfg;
  };
  int chains = 0;
  int day = 0;
  LongitudinalStats stats;
  PassTrace t;
  PassTrace pass;
  const auto check_leg = [&] {
    check_days(r, stats, day, day, "leg");
    count_leg(r, stats, day);
    if (day == kDays) ++chains;
  };
  const auto leg_pass = [&](bool traced) {
    return [&, traced](int leg) {
      const LongitudinalConfig cfg = leg_config(leg);
      day = cfg.checkpoint_day;
      pass = PassTrace{};
      stats = run_pass(cfg, traced ? &pass : nullptr);
    };
  };

  std::vector<double> legs;
  std::vector<double> plain;
  if (!o.trace) {
    legs = timed_passes(o.seconds, kDays - 1, leg_pass(false), check_leg);
    time_setup(kSetupReps, setup, setup_s);
  } else {
    plain = timed_passes(o.seconds / 3.0, 1, leg_pass(false), check_leg);
    // The traced legs start a fresh chain from day 1 and finish at least one.
    chains = 0;
    legs = timed_passes(o.seconds - sum(plain), kDays - 1, leg_pass(true), [&] {
      check_leg();
      count_traced_leg(r, pass, day);
      t.merge(pass);
    });
  }
  r.attempted += kDevices * (plain.size() + legs.size());

  // Gate: the chained legs' last checkpoint is byte-identical to one
  // uninterrupted run of the same population to the same day.
  if (chains == 0) r.fail("no chain of legs completed");
  LongitudinalConfig whole = base;
  whole.checkpoint_path = dir + "uninterrupted.ckpt";
  whole.checkpoint_day = kDays;
  iw::fleet::LongitudinalRunner(whole).run();
  const std::string expect = read_file(whole.checkpoint_path);
  const std::string got = read_file(finished);
  if (expect != got) {
    r.fail("chained legs' checkpoint differs from an uninterrupted run", kDevices);
  }
  r.count("ckpt.final_digest", fnv1a(got));
  r.count("ckpt.file_bytes", got.size());

  if (!o.trace) {
    report_end_to_end(r, setup_s, legs, static_cast<double>(kDevices));
    r.metric("leg_s_p50", median(legs), "s");
    r.metric("legs", static_cast<double>(legs.size()), "count");
  } else {
    report_layers(r, t, static_cast<int>(legs.size()));
    r.metric("app.build_s", median(app_build), "s");
    r.metric("trace.overhead_frac", overhead(plain, legs), "ratio");
  }
  for (const char* f : {"day1.ckpt", "a.ckpt", "b.ckpt", "final.ckpt", "uninterrupted.ckpt"}) {
    std::remove((dir + f).c_str());
  }
  return r;
}

}  // namespace perfbench
