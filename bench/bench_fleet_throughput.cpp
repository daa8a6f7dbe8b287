// Fleet throughput: device-days/sec of the fleet runner against the
// per-device reference loop, across worker threads and the SIMD dispatch
// tiers of the cohort kernel.
//
// Simulates a 1000-device fleet for one day (override with `--devices N
// --days N --shard N`; the last caps the devices per shard) on three paths:
//   engine  run_per_device_oracle on the discrete-event engine (the oracle,
//           including the engine's always-on trace recording), 1 thread
//   fast    run_per_device_oracle on the allocation-free fast-path segment
//           integrator, 1 thread
//   cohort  LongitudinalRunner (the product path) at 1/2/4/8 worker threads:
//           each shard advances in lockstep through the structure-of-arrays
//           cohort kernel, sharing segment tables, the detection-gate window
//           and policy objects across the shard; five alternating rounds per
//           thread count, reported as median, min and max
// then sweeps the runner across the SIMD tiers this build + host can run
// (off, plus avx2 and avx512 where usable) at one thread, five alternating rounds per
// tier reported the same way. Reports device-days/sec, the
// fast-vs-engine / cohort-vs-fast / simd-vs-scalar speedups, and the
// runner's thread scaling; cross-checks the determinism invariants in-run
// (per-device FleetStats byte-identical on every path, thread count and SIMD
// tier, each compared against the engine oracle's serialization). Results
// land in BENCH_fleet_throughput.json along with the host CPU model, ISA
// features and compiler that produced them.
//
// `--smoke` replaces the sweep with a seconds-scale cross-check (64 devices x
// 1 day through both oracle drivers, the runner at every tier and at 2
// threads), prints a digest of the canonical serialization for cross-build
// comparison (the digest depends only on the simulated results, never on
// shards, threads or tier), and exits nonzero on any mismatch.
// scripts/check.sh runs it on every build and pins the digest, in the SIMD
// and the -DIW_SIMD=OFF portable build.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.hpp"
#include "common/hostinfo.hpp"
#include "common/simd.hpp"
#include "fleet/fleet_stats.hpp"
#include "fleet/longitudinal/runner.hpp"
#include "report.hpp"

namespace {

// FNV-1a over the canonical FleetStats serialization: two runs agree
// bit-for-bit iff their digests match (modulo collisions, which a follow-up
// byte compare of the serializations would catch — the bench itself always
// compares the full strings and uses the digest only for cross-build output).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<iw::simd::Tier> runnable_tiers() {
  std::vector<iw::simd::Tier> tiers;
  for (const iw::simd::Tier tier :
       {iw::simd::Tier::kOff, iw::simd::Tier::kAvx2, iw::simd::Tier::kAvx512}) {
    if (iw::simd::tier_usable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// One timed run of a path: its per-device serialization and throughput.
struct Run {
  std::string serialized;
  iw::fleet::FleetStats::Summary summary;
  double wall_s = 0.0;
  double device_days_per_sec = 0.0;
};

Run run_oracle(const iw::fleet::LongitudinalConfig& config,
               iw::fleet::DayDriver driver) {
  const auto t0 = std::chrono::steady_clock::now();
  const iw::fleet::FleetStats stats = iw::fleet::run_per_device_oracle(
      config.fleet_seed, config.num_devices, config.days, nullptr, driver);
  const auto t1 = std::chrono::steady_clock::now();
  Run run;
  run.serialized = stats.serialize();
  run.summary = stats.summarize();
  run.wall_s = std::chrono::duration<double>(t1 - t0).count();
  run.device_days_per_sec =
      run.wall_s > 0.0 ? static_cast<double>(config.num_devices) * config.days /
                             run.wall_s
                       : 0.0;
  return run;
}

/// Median, min and max of repeated measurements.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  return Spread{median, v.front(), v.back()};
}

Run run_cohort(iw::fleet::LongitudinalConfig config, int threads) {
  config.threads = threads;
  const iw::fleet::LongitudinalResult result =
      iw::fleet::LongitudinalRunner(config).run();
  Run run;
  run.serialized = result.outcomes.serialize();
  run.wall_s = result.wall_s;
  run.device_days_per_sec = result.device_days_per_sec;
  return run;
}

int run_bench(int argc, char** argv) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  using iw::cli::flag_value;
  iw::fleet::LongitudinalConfig config;
  config.num_devices = 1000;
  config.days = 1;
  config.shard_size = 256;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const bool more = i + 1 < argc;
    if (std::strcmp(argv[i], "--devices") == 0 && more) {
      if (!flag_value(argv, i, 1, kU64Max, config.num_devices)) return 2;
    } else if (std::strcmp(argv[i], "--days") == 0 && more) {
      if (!flag_value(argv, i, 1, std::numeric_limits<int>::max(), config.days)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--shard") == 0 && more) {
      if (!flag_value(argv, i, 1, kU64Max, config.shard_size)) return 2;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--devices N] [--days N] [--shard N] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  config.fleet_seed = 2020;
  config.record_outcomes = true;  // the per-device rows are what gets compared
  const std::vector<iw::simd::Tier> tiers = runnable_tiers();

  if (smoke) {
    // Seconds-scale cross-build check: both oracle drivers, every SIMD tier
    // and a threaded run must serialize to the same bytes.
    config.num_devices = 64;
    config.days = 1;
    iw::bench::print_header("Fleet throughput smoke (64 devices x 1 day)");
    const std::string reference =
        run_oracle(config, iw::fleet::DayDriver::kEngine).serialized;
    bool ok = true;
    const auto check = [&](const std::string& label, const std::string& got) {
      const bool same = got == reference;
      std::printf("  %-28s %s\n", label.c_str(),
                  same ? "matches engine oracle" : "MISMATCH");
      ok = ok && same;
    };
    check("fast t1", run_oracle(config, iw::fleet::DayDriver::kFast).serialized);
    for (iw::simd::Tier tier : tiers) {
      iw::simd::override_tier(tier);
      check(std::string("cohort t1 tier=") + iw::simd::tier_name(tier),
            run_cohort(config, 1).serialized);
    }
    iw::simd::clear_override();
    check("cohort t2", run_cohort(config, 2).serialized);
    std::printf("  smoke digest: %016llx\n",
                static_cast<unsigned long long>(fnv1a(reference)));
    iw::bench::print_note(ok ? "smoke cross-check passed"
                             : "SMOKE FAILURE: paths disagree");
    return ok ? 0 : 1;
  }

  iw::bench::print_header("Fleet throughput (" + std::to_string(config.num_devices) +
                          " devices x " + std::to_string(config.days) + " day" +
                          (config.days == 1 ? "" : "s") + ")");

  iw::bench::JsonReport json("BENCH_fleet_throughput.json");
  json.add("devices", static_cast<double>(config.num_devices));
  json.add("days", config.days);
  json.add("shard_cap", static_cast<double>(config.shard_size));
  json.add("hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()));
  json.add("cpu_model", iw::hostinfo::cpu_model());
  json.add("cpu_simd_features", iw::hostinfo::cpu_simd_features());
  json.add("simd_tier", iw::simd::tier_name(iw::simd::active_tier()));
  json.add("compiler", __VERSION__);

  std::printf("%18s %8s %16s %10s %12s\n", "path", "threads", "dev-days/sec",
              "speedup", "efficiency");
  const auto report = [&](const char* name, int threads, const Run& run,
                          double base_ddps, const std::string& note = "") {
    const double speedup = base_ddps > 0.0 ? run.device_days_per_sec / base_ddps : 0.0;
    const double efficiency = speedup / threads;
    std::printf("%18s %8d %16.1f %9.2fx %11.1f%%%s\n", name, threads,
                run.device_days_per_sec, speedup, 100.0 * efficiency, note.c_str());
    const std::string prefix = std::string(name) + "_t" + std::to_string(threads);
    json.add(prefix + "_device_days_per_sec", run.device_days_per_sec);
    json.add(prefix + "_wall_s", run.wall_s);
    json.add(prefix + "_speedup", speedup);
    json.add(prefix + "_efficiency", efficiency);
  };

  // The per-device loop is serial by design: it is the oracle, not a
  // product path, so it runs at one thread only.
  const Run engine = run_oracle(config, iw::fleet::DayDriver::kEngine);
  const std::string& reference = engine.serialized;
  report("engine", 1, engine, engine.device_days_per_sec);
  const Run fast = run_oracle(config, iw::fleet::DayDriver::kFast);
  report("fast", 1, fast, fast.device_days_per_sec);
  bool deterministic = fast.serialized == reference;

  // Thread axis: kReps rounds that each run the runner once per thread count
  // (alternating, so host drift hits every count alike), each run's rows
  // compared byte-for-byte against the engine oracle. A pass is short (under
  // 0.3 s at 4000 devices x 2 days), so a single pass per row swings with the
  // load of the moment; the rows report the median, min and max of the
  // rounds, and the speedups are ratios of medians.
  constexpr int kReps = 5;
  constexpr int kThreadCounts[] = {1, 2, 4, 8};
  std::vector<std::vector<double>> thread_ddps(std::size(kThreadCounts));
  std::vector<std::vector<double>> thread_wall(std::size(kThreadCounts));
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
      const Run cohort = run_cohort(config, kThreadCounts[t]);
      if (cohort.serialized != reference) deterministic = false;
      thread_ddps[t].push_back(cohort.device_days_per_sec);
      thread_wall[t].push_back(cohort.wall_s);
    }
  }
  json.add("cohort_thread_reps", static_cast<double>(kReps));
  const double cohort_t1_ddps = spread(thread_ddps.front()).median;
  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    const Spread s = spread(thread_ddps[t]);
    Run row;
    row.device_days_per_sec = s.median;
    row.wall_s = spread(thread_wall[t]).median;
    char note[64];
    std::snprintf(note, sizeof note, "   (min %.1f, max %.1f over %d)", s.min, s.max, kReps);
    report("cohort", kThreadCounts[t], row, cohort_t1_ddps, note);
    const std::string prefix =
        "cohort_t" + std::to_string(kThreadCounts[t]) + "_device_days_per_sec";
    json.add(prefix + "_min", s.min);
    json.add(prefix + "_max", s.max);
  }

  // SIMD tier axis: the runner at one thread, kReps rounds that each run
  // every tier this build + host can run once, reported the same way.
  bool tiers_identical = true;
  std::vector<std::vector<double>> tier_ddps(tiers.size());
  std::vector<double> pair_speedups;  // widest tier / off, per round
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      iw::simd::override_tier(tiers[t]);
      const Run cohort = run_cohort(config, 1);
      if (cohort.serialized != reference) tiers_identical = false;
      tier_ddps[t].push_back(cohort.device_days_per_sec);
    }
    pair_speedups.push_back(tier_ddps.back().back() / tier_ddps.front().back());
  }
  json.add("cohort_tier_reps", static_cast<double>(kReps));
  const Spread off = spread(tier_ddps.front());
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const Spread s = spread(tier_ddps[t]);
    const std::string label = std::string("cohort tier=") + iw::simd::tier_name(tiers[t]);
    std::printf("%18s %8d %16.1f %9.2fx   (min %.1f, max %.1f over %d)\n", label.c_str(),
                1, s.median, s.median / off.median, s.min, s.max, kReps);
    const std::string prefix =
        "cohort_tier_" + std::string(iw::simd::tier_name(tiers[t])) + "_t1_device_days_per_sec";
    json.add(prefix, s.median);
    json.add(prefix + "_min", s.min);
    json.add(prefix + "_max", s.max);
  }
  iw::simd::clear_override();

  const double fast_speedup = engine.device_days_per_sec > 0.0
                                  ? fast.device_days_per_sec / engine.device_days_per_sec
                                  : 0.0;
  const double cohort_speedup =
      fast.device_days_per_sec > 0.0 ? cohort_t1_ddps / fast.device_days_per_sec : 0.0;
  const double simd_speedup = spread(tier_ddps.back()).median / off.median;
  const Spread simd_pairs = spread(pair_speedups);
  std::printf("\n  fast path vs engine path (1 thread): %.2fx\n", fast_speedup);
  std::printf("  cohort kernel vs fast path (1 thread): %.2fx\n",
              cohort_speedup);
  std::printf("  cohort SIMD vs scalar kernel (1 thread): %.2fx (per round %.2f-%.2fx)\n",
              simd_speedup, simd_pairs.min, simd_pairs.max);
  json.add("fast_vs_engine_speedup_t1", fast_speedup);
  json.add("cohort_vs_fast_speedup_t1", cohort_speedup);
  json.add("cohort_simd_vs_scalar_speedup_t1", simd_speedup);
  json.add("cohort_simd_vs_scalar_speedup_t1_min", simd_pairs.min);
  json.add("cohort_simd_vs_scalar_speedup_t1_max", simd_pairs.max);
  json.add("deterministic_across_threads_and_paths", deterministic ? 1.0 : 0.0);
  json.add("identical_across_simd_tiers", tiers_identical ? 1.0 : 0.0);
  json.add("fleet_completed_detections",
           static_cast<double>(engine.summary.detections_completed));
  json.add("fleet_fraction_self_sustaining", engine.summary.fraction_self_sustaining);
  json.add("fleet_final_soc_p50", engine.summary.final_soc.p50);
  json.add("peak_rss_bytes",
           static_cast<double>(iw::hostinfo::peak_rss_bytes()));

  iw::bench::print_note(
      deterministic
          ? "per-device FleetStats byte-identical across the oracle drivers and "
            "the runner at every thread count"
          : "DETERMINISM VIOLATION: stats differ across thread counts or paths");
  iw::bench::print_note(
      tiers_identical
          ? "runner FleetStats byte-identical across SIMD tiers vs engine oracle"
          : "SIMD TIER VIOLATION: a tier's stats differ from the engine oracle");
  iw::bench::print_note("speedup is bounded by the host's available cores (" +
                        std::to_string(std::thread::hardware_concurrency()) +
                        " here)");
  json.write();
  return deterministic && tiers_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_bench(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_fleet_throughput: %s\n", e.what());
    return 1;
  }
}
