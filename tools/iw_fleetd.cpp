// iw_fleetd — longitudinal fleet service CLI.
//
// Runs a reproducible device population (sampled from a fleet seed) for a
// number of simulated days through the sharded longitudinal runner and
// answers the product questions the streamed aggregates exist for:
//
//   * "what fraction of the fleet is self-sustaining at day N?"
//   * "what is the SoC p50/p99, per wearer archetype, over time?"
//
// Memory is O(shard), so populations far past RAM-resident fleet sizes run
// fine: 100k devices x 30 days needs only the active shard plus the
// days x archetypes x bins aggregate. A run can be cut at a day boundary
// (--checkpoint/--checkpoint-day) and continued later (--resume); the
// continued run's aggregates are byte-identical to never having stopped.
//
//   iw_fleetd --devices 100000 --days 30 --threads 8 --json fleet30.json
//   iw_fleetd --devices 50000 --days 60 --checkpoint mid.ckpt --checkpoint-day 30
//   iw_fleetd --devices 50000 --days 60 --resume mid.ckpt --json days60.json
//   iw_fleetd --devices 5000 --days 7 --app   # energy + NN classification
//   iw_fleetd --smoke        # self-check: determinism across threads,
//                            # shard sizes, and a checkpoint/resume split
//
// With --app, a stress-detection pipeline (dataset synthesis, training,
// quantization — see core/app.hpp) is built once up front and shared
// read-only by every shard worker: each device-day then classifies its
// completed detection windows and the `classified` column/JSON keys report
// the population totals. --app-subjects/--app-minutes/--app-epochs size the
// training run (the defaults build in a few seconds; accuracy is secondary
// to duty-cycle realism here).
//
// Numeric flags must be whole numbers in range (tools/cli_flags.hpp), so
// "--shard -1" or "--devices 10x" exits with status 2 and a message.
// --shard caps the devices per shard; the runner chooses the partition
// (plan_shards) and the `fleet:` line reports the one it used.
//
// JSON goes through the shared bench report layer (flat key -> number), so
// downstream tooling reads fleet trajectories and bench trajectories the
// same way.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "cli_flags.hpp"
#include "common/hostinfo.hpp"
#include "core/app.hpp"
#include "fleet/longitudinal/runner.hpp"
#include "report.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--devices N] [--first N] [--seed S] [--days N]\n"
      "          [--shard N] [--threads N] [--bins N] [--query-day N]\n"
      "          [--every N] [--json PATH]\n"
      "          [--app] [--app-subjects N] [--app-minutes F] [--app-epochs N]\n"
      "          [--checkpoint PATH --checkpoint-day N] [--resume PATH]\n"
      "          [--smoke]\n",
      argv0);
  return 2;
}

/// Self-check: one small population, simulated four ways that must agree to
/// the byte — baseline, different thread count, different shard size (which
/// also permutes shard claim order), and a checkpoint/resume split.
int run_smoke() {
  using iw::fleet::LongitudinalConfig;
  using iw::fleet::LongitudinalRunner;

  LongitudinalConfig base;
  base.num_devices = 600;
  base.days = 8;
  base.shard_size = 128;
  base.threads = 1;
  std::printf("iw_fleetd smoke: %llu devices x %d days\n",
              static_cast<unsigned long long>(base.num_devices), base.days);

  const std::string reference = LongitudinalRunner(base).run().stats.serialize();

  LongitudinalConfig threaded = base;
  threaded.threads = 4;
  const bool threads_ok =
      LongitudinalRunner(threaded).run().stats.serialize() == reference;
  std::printf("  threads=4           %s\n", threads_ok ? "ok" : "MISMATCH");

  LongitudinalConfig resharded = base;
  resharded.shard_size = 57;
  resharded.threads = 2;
  const bool shard_ok =
      LongitudinalRunner(resharded).run().stats.serialize() == reference;
  std::printf("  shard=57 threads=2  %s\n", shard_ok ? "ok" : "MISMATCH");

  const std::string ckpt = "iw_fleetd_smoke.ckpt";
  LongitudinalConfig leg1 = base;
  leg1.checkpoint_path = ckpt;
  leg1.checkpoint_day = 3;
  LongitudinalRunner(leg1).run();
  LongitudinalConfig leg2 = base;
  leg2.resume_path = ckpt;
  leg2.threads = 2;
  const bool resume_ok =
      LongitudinalRunner(leg2).run().stats.serialize() == reference;
  std::remove(ckpt.c_str());
  std::printf("  checkpoint@3+resume %s\n", resume_ok ? "ok" : "MISMATCH");

  const bool ok = threads_ok && shard_ok && resume_ok;
  std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr int kIntMax = std::numeric_limits<int>::max();
  using iw::cli::flag_value;
  iw::fleet::LongitudinalConfig config;
  config.num_devices = 10000;
  int query_day = 0;
  int every = 0;
  std::string json_path;
  bool smoke = false;
  bool with_app = false;
  iw::core::AppConfig app_config;
  // CLI training defaults lean small: fleet runs want the classification
  // plumbing and duty-cycle costs, not leaderboard accuracy.
  app_config.dataset.subjects = 2;
  app_config.dataset.minutes_per_level = 2.0;
  app_config.training.max_epochs = 40;

  for (int i = 1; i < argc; ++i) {
    const bool more = i + 1 < argc;
    if (std::strcmp(argv[i], "--devices") == 0 && more) {
      if (!flag_value(argv, i, 1, kU64Max, config.num_devices)) return 2;
    } else if (std::strcmp(argv[i], "--first") == 0 && more) {
      if (!flag_value(argv, i, 0, kU64Max, config.first_device)) return 2;
    } else if (std::strcmp(argv[i], "--seed") == 0 && more) {
      if (!flag_value(argv, i, 0, kU64Max, config.fleet_seed)) return 2;
    } else if (std::strcmp(argv[i], "--days") == 0 && more) {
      if (!flag_value(argv, i, 1, kIntMax, config.days)) return 2;
    } else if (std::strcmp(argv[i], "--shard") == 0 && more) {
      if (!flag_value(argv, i, 1, kU64Max, config.shard_size)) return 2;
    } else if (std::strcmp(argv[i], "--threads") == 0 && more) {
      if (!flag_value(argv, i, 1, 4096, config.threads)) return 2;
    } else if (std::strcmp(argv[i], "--bins") == 0 && more) {
      if (!flag_value(argv, i, 2, 4096, config.soc_bins)) return 2;
    } else if (std::strcmp(argv[i], "--query-day") == 0 && more) {
      if (!flag_value(argv, i, 0, kIntMax, query_day)) return 2;
    } else if (std::strcmp(argv[i], "--every") == 0 && more) {
      if (!flag_value(argv, i, 0, kIntMax, every)) return 2;
    } else if (std::strcmp(argv[i], "--json") == 0 && more) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--app") == 0) {
      with_app = true;
    } else if (std::strcmp(argv[i], "--app-subjects") == 0 && more) {
      with_app = true;
      if (!flag_value(argv, i, 1, 1000, app_config.dataset.subjects)) return 2;
    } else if (std::strcmp(argv[i], "--app-minutes") == 0 && more) {
      with_app = true;
      if (!flag_value(argv, i, 0.1, 1440.0, app_config.dataset.minutes_per_level)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--app-epochs") == 0 && more) {
      with_app = true;
      if (!flag_value(argv, i, 1, 1000000, app_config.training.max_epochs)) return 2;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && more) {
      config.checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-day") == 0 && more) {
      if (!flag_value(argv, i, 1, kIntMax, config.checkpoint_day)) return 2;
    } else if (std::strcmp(argv[i], "--resume") == 0 && more) {
      config.resume_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (query_day <= 0 || query_day > config.days) query_day = config.days;
  // Day-table stride: by default print ~12 rows regardless of horizon.
  if (every <= 0) every = config.days <= 12 ? 1 : (config.days + 11) / 12;

  try {
    if (smoke) return run_smoke();
    std::optional<iw::core::StressDetectionApp> app;
    if (with_app) {
      app.emplace(iw::core::StressDetectionApp::build(app_config));
      config.app = &*app;
      std::printf("app: %d subjects x %.1f min/level, %zu epochs; "
                  "test accuracy float %.3f / fixed %.3f\n",
                  app_config.dataset.subjects,
                  app_config.dataset.minutes_per_level,
                  app_config.training.max_epochs, app->float_test_accuracy(),
                  app->fixed_test_accuracy());
    }
    const iw::fleet::LongitudinalRunner runner(config);
    const iw::fleet::LongitudinalResult result = runner.run();
    const iw::fleet::LongitudinalStats& stats = result.stats;
    const int last_day = result.end_day;

    std::printf("fleet: %llu devices (ids %llu..%llu), days %d..%d, "
                "shard %llu x %llu, %d thread%s\n",
                static_cast<unsigned long long>(config.num_devices),
                static_cast<unsigned long long>(config.first_device),
                static_cast<unsigned long long>(config.first_device +
                                                config.num_devices - 1),
                result.start_day, last_day,
                static_cast<unsigned long long>(result.shard_size),
                static_cast<unsigned long long>(result.shards),
                result.threads_used, result.threads_used == 1 ? "" : "s");
    std::printf("wall: %.2f s  (%.0f device-days/sec, peak rss %.1f MiB)\n\n",
                result.wall_s, result.device_days_per_sec,
                static_cast<double>(iw::hostinfo::peak_rss_bytes()) /
                    (1024.0 * 1024.0));

    std::printf("%5s %10s %9s %9s %9s %12s\n", "day", "devices", "frac_ss",
                "soc_p50", "soc_p99", "classified");
    for (int day = 1; day <= last_day; ++day) {
      if (day % every != 0 && day != last_day && day != query_day) continue;
      const auto c = stats.day_counters(day);
      std::printf("%5d %10llu %9.4f %9.4f %9.4f %12llu\n", day,
                  static_cast<unsigned long long>(c.devices),
                  stats.fraction_self_sustaining(day),
                  stats.soc_quantile(day, 0.50), stats.soc_quantile(day, 0.99),
                  static_cast<unsigned long long>(c.classified));
    }

    std::printf("\nself-sustaining at day %d: %.4f\n", query_day,
                stats.fraction_self_sustaining(query_day));
    std::printf("\nSoC by archetype at day %d:\n", last_day);
    std::printf("%16s %10s %9s %9s\n", "archetype", "devices", "soc_p50",
                "soc_p99");
    for (int p = 0; p < iw::fleet::kNumWearerProfiles; ++p) {
      const auto profile = static_cast<iw::fleet::WearerProfile>(p);
      const auto c = stats.day_counters(last_day, profile);
      std::printf("%16s %10llu %9.4f %9.4f\n", iw::fleet::to_string(profile),
                  static_cast<unsigned long long>(c.devices),
                  stats.soc_quantile(last_day, 0.50, profile),
                  stats.soc_quantile(last_day, 0.99, profile));
    }

    if (!config.checkpoint_path.empty()) {
      std::printf("\ncheckpoint written: %s (day %d)\n",
                  config.checkpoint_path.c_str(), last_day);
    }

    if (!json_path.empty()) {
      iw::bench::JsonReport json(json_path);
      json.add("devices", static_cast<double>(config.num_devices));
      json.add("first_device", static_cast<double>(config.first_device));
      json.add("start_day", result.start_day);
      json.add("end_day", last_day);
      json.add("threads", result.threads_used);
      json.add("shard_size", static_cast<double>(result.shard_size));
      json.add("shards", static_cast<double>(result.shards));
      json.add("soc_bins", config.soc_bins);
      json.add("wall_s", result.wall_s);
      json.add("device_days_per_sec", result.device_days_per_sec);
      json.add("peak_rss_bytes",
               static_cast<double>(iw::hostinfo::peak_rss_bytes()));
      json.add("query_day", query_day);
      json.add("frac_self_sustaining_query_day",
               stats.fraction_self_sustaining(query_day));
      json.add("app_enabled", with_app ? 1 : 0);
      if (with_app) {
        json.add("app_float_accuracy", app->float_test_accuracy());
        json.add("app_fixed_accuracy", app->fixed_test_accuracy());
      }
      for (int day = 1; day <= last_day; ++day) {
        const std::string prefix = "day" + std::to_string(day);
        json.add(prefix + "_frac_self_sustaining",
                 stats.fraction_self_sustaining(day));
        json.add(prefix + "_soc_p50", stats.soc_quantile(day, 0.50));
        json.add(prefix + "_soc_p99", stats.soc_quantile(day, 0.99));
        json.add(prefix + "_classified",
                 static_cast<double>(stats.day_counters(day).classified));
        for (int p = 0; p < iw::fleet::kNumWearerProfiles; ++p) {
          const auto profile = static_cast<iw::fleet::WearerProfile>(p);
          json.add(prefix + "_soc_p50_" + iw::fleet::to_string(profile),
                   stats.soc_quantile(day, 0.50, profile));
          json.add(prefix + "_soc_p99_" + iw::fleet::to_string(profile),
                   stats.soc_quantile(day, 0.99, profile));
        }
      }
      json.write();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iw_fleetd: %s\n", e.what());
    return 1;
  }
  return 0;
}
