// Longitudinal fleet runner throughput: device-days/sec when the per-shard
// setup (scenario sampling, profile build, policy pooling, shape/gate
// caches) amortizes over a month of simulated days instead of one.
//
// Sweeps worker threads at a fixed population (override with `--devices N
// --days N --shard N`), prints device-days/sec against the 1-day cohort
// baseline measured in the same process, and cross-checks the determinism
// contract in-bench: streamed aggregates byte-identical across thread
// counts, shard sizes, and a checkpoint/resume split through a real
// checkpoint file. Results land in BENCH_fleet_longitudinal.json.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "cli_flags.hpp"
#include "fleet/longitudinal/runner.hpp"
#include "report.hpp"

int main(int argc, char** argv) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  using iw::cli::flag_value;
  std::uint64_t devices = 10000;
  int days = 30;
  std::size_t shard = 4096;
  for (int i = 1; i < argc; ++i) {
    const bool more = i + 1 < argc;
    if (std::strcmp(argv[i], "--devices") == 0 && more) {
      if (!flag_value(argv, i, 1, kU64Max, devices)) return 2;
    } else if (std::strcmp(argv[i], "--days") == 0 && more) {
      if (!flag_value(argv, i, 1, std::numeric_limits<int>::max(), days)) return 2;
    } else if (std::strcmp(argv[i], "--shard") == 0 && more) {
      if (!flag_value(argv, i, 1, kU64Max, shard)) return 2;
    } else {
      std::fprintf(stderr, "usage: %s [--devices N] [--days N] [--shard N]\n",
                   argv[0]);
      return 2;
    }
  }

  iw::bench::print_header(
      "Longitudinal fleet throughput (" + std::to_string(devices) +
      " devices x " + std::to_string(days) + " days, shard " +
      std::to_string(shard) + ")");

  iw::fleet::LongitudinalConfig config;
  config.num_devices = devices;
  config.fleet_seed = 2020;
  config.days = days;
  config.shard_size = shard;

  iw::bench::JsonReport json("BENCH_fleet_longitudinal.json");
  json.add("devices", static_cast<double>(devices));
  json.add("days", days);
  json.add("shard_size", static_cast<double>(shard));
  json.add("hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()));

  // 1-day baseline in the same process: what the cohort engine achieves when
  // every day pays the full per-device setup (the committed
  // BENCH_fleet_throughput cohort_t1 number measures the same thing).
  iw::fleet::LongitudinalConfig one_day = config;
  one_day.days = 1;
  one_day.threads = 1;
  const double day1_ddps =
      iw::fleet::LongitudinalRunner(one_day).run().device_days_per_sec;
  std::printf("  1-day baseline (1 thread): %.0f device-days/sec\n\n", day1_ddps);
  json.add("day1_t1_device_days_per_sec", day1_ddps);

  std::printf("%8s %16s %10s %12s\n", "threads", "dev-days/sec", "speedup",
              "efficiency");
  std::string reference;
  double t1_ddps = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    config.threads = threads;
    const iw::fleet::LongitudinalResult result =
        iw::fleet::LongitudinalRunner(config).run();
    if (threads == 1) {
      t1_ddps = result.device_days_per_sec;
      reference = result.stats.serialize();
    }
    const double speedup =
        t1_ddps > 0.0 ? result.device_days_per_sec / t1_ddps : 0.0;
    std::printf("%8d %16.1f %9.2fx %11.1f%%\n", threads,
                result.device_days_per_sec, speedup,
                100.0 * speedup / threads);
    const std::string prefix = "long_t" + std::to_string(threads);
    json.add(prefix + "_device_days_per_sec", result.device_days_per_sec);
    json.add(prefix + "_wall_s", result.wall_s);
    json.add(prefix + "_speedup", speedup);
    if (threads > 1 && result.stats.serialize() != reference) {
      std::printf("  DETERMINISM VIOLATION at %d threads\n", threads);
      json.add("deterministic", 0.0);
      json.write();
      return 1;
    }
  }

  const double amortization = day1_ddps > 0.0 ? t1_ddps / day1_ddps : 0.0;
  std::printf("\n  multi-day vs 1-day (1 thread): %.2fx\n", amortization);
  json.add("multiday_vs_1day_t1", amortization);

  // Determinism beyond thread count: a smaller shard cap on a thread count
  // outside the sweep (a partition no row above used) and a checkpoint/resume
  // split through a real file must reproduce the aggregate byte for byte.
  iw::fleet::LongitudinalConfig resharded = config;
  resharded.threads = 3;
  resharded.shard_size = shard / 3 + 1;
  const bool reshard_ok =
      iw::fleet::LongitudinalRunner(resharded).run().stats.serialize() ==
      reference;

  bool resume_ok = true;
  if (days >= 2) {
    const std::string ckpt = "bench_fleet_longitudinal.ckpt";
    iw::fleet::LongitudinalConfig leg1 = config;
    leg1.threads = 4;
    leg1.checkpoint_path = ckpt;
    leg1.checkpoint_day = days / 2;
    iw::fleet::LongitudinalRunner(leg1).run();
    iw::fleet::LongitudinalConfig leg2 = config;
    leg2.threads = 2;
    leg2.resume_path = ckpt;
    resume_ok =
        iw::fleet::LongitudinalRunner(leg2).run().stats.serialize() == reference;
    std::remove(ckpt.c_str());
  }

  const bool deterministic = reshard_ok && resume_ok;
  json.add("deterministic", deterministic ? 1.0 : 0.0);
  iw::bench::print_note(
      deterministic
          ? "aggregates byte-identical across thread counts, shard sizes, and "
            "a checkpoint/resume split"
          : "DETERMINISM VIOLATION across shard sizes or checkpoint/resume");
  json.write();
  return deterministic ? 0 : 1;
}
