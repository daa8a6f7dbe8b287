// A week across the fleet: simulates a population of InfiniWolf wearers for
// 7 days and prints aggregate telemetry — battery percentiles, detection
// rates, the self-sustaining fraction, and the stress-classification mix as
// seen through the shared deployed network.
//
// Usage: fleet_week [devices] [days] [threads]
//
// Each argument must be a whole positive number (tools/cli_flags.hpp);
// anything else exits 2 with a message.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <thread>

#include "cli_flags.hpp"
#include "fleet/longitudinal/runner.hpp"

namespace {

/// Reads positional argument `index`, when given, into `out`. Returns false
/// (after saying why) unless it is a number in [lo, hi].
template <typename T>
bool positional(int argc, char** argv, int index, const char* name, T lo, T hi, T& out) {
  if (index >= argc || iw::cli::parse_number(argv[index], lo, hi, out)) return true;
  std::fprintf(stderr, "fleet_week: %s needs a number in [%s, %s], got '%s'\n", name,
               std::to_string(lo).c_str(), std::to_string(hi).c_str(), argv[index]);
  return false;
}

void print_percentiles(const char* label, const iw::fleet::FleetStats::Percentiles& p,
                       double scale, const char* unit) {
  std::printf("  %-22s p5 %8.2f   p25 %8.2f   p50 %8.2f   p75 %8.2f   p95 %8.2f %s\n",
              label, scale * p.p5, scale * p.p25, scale * p.p50, scale * p.p75,
              scale * p.p95, unit);
}

int run_week(int argc, char** argv) {
  iw::fleet::LongitudinalConfig config;
  config.num_devices = 128;
  config.days = 7;
  config.threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (argc > 4 ||
      !positional(argc, argv, 1, "devices", std::uint64_t{1},
                  std::numeric_limits<std::uint64_t>::max(), config.num_devices) ||
      !positional(argc, argv, 2, "days", 1, std::numeric_limits<int>::max(), config.days) ||
      !positional(argc, argv, 3, "threads", 1, 4096, config.threads)) {
    std::fprintf(stderr, "usage: fleet_week [devices] [days] [threads]\n");
    return 2;
  }
  config.fleet_seed = 2020;
  // The percentile rows below need every device's outcome, not just the
  // streamed histograms.
  config.record_outcomes = true;

  std::printf("InfiniWolf fleet - %llu devices x %d days (%d threads)\n",
              static_cast<unsigned long long>(config.num_devices), config.days,
              config.threads);
  std::printf("==================================================\n\n");

  std::printf("training shared stress-detection app...\n");
  iw::core::AppConfig app_config;
  app_config.dataset.subjects = 3;
  app_config.dataset.minutes_per_level = 4.0;
  app_config.training.max_epochs = 120;
  const iw::core::StressDetectionApp app =
      iw::core::StressDetectionApp::build(app_config);
  std::printf("  float accuracy %.1f%%, fixed-point accuracy %.1f%%\n\n",
              100.0 * app.float_test_accuracy(), 100.0 * app.fixed_test_accuracy());
  config.app = &app;

  const iw::fleet::LongitudinalResult result =
      iw::fleet::LongitudinalRunner(config).run();
  const iw::fleet::FleetStats::Summary s = result.outcomes.summarize();
  const double devices_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(result.devices) / result.wall_s : 0.0;

  std::printf("simulated %llu device-days in %.2f s (%.0f devices/sec)\n\n",
              static_cast<unsigned long long>(config.num_devices) *
                  static_cast<unsigned long long>(config.days),
              result.wall_s, devices_per_sec);

  std::printf("fleet energy & workload\n");
  std::printf("  harvested %.1f J, consumed %.1f J across the fleet\n", s.harvested_j,
              s.consumed_j);
  std::printf("  detections: %llu completed, %llu skipped (battery)\n",
              static_cast<unsigned long long>(s.detections_completed),
              static_cast<unsigned long long>(s.detections_skipped));
  std::printf("  self-sustaining devices: %.1f%%\n\n",
              100.0 * s.fraction_self_sustaining);

  print_percentiles("final SoC", s.final_soc, 100.0, "%");
  print_percentiles("min SoC", s.min_soc, 100.0, "%");
  print_percentiles("detections/min", s.detections_per_min, 1.0, "");
  print_percentiles("mean intake", s.intake_uw, 1.0, "uW");

  std::printf("\nwearer profiles\n");
  for (int p = 0; p < iw::fleet::kNumWearerProfiles; ++p) {
    std::printf("  %-16s %4zu devices\n",
                iw::fleet::to_string(static_cast<iw::fleet::WearerProfile>(p)),
                s.per_profile[static_cast<std::size_t>(p)]);
  }
  std::printf("scheduling policies\n");
  for (int k = 0; k < iw::fleet::kNumPolicyKinds; ++k) {
    std::printf("  %-16s %4zu devices\n",
                iw::fleet::to_string(static_cast<iw::fleet::PolicyKind>(k)),
                s.per_policy[static_cast<std::size_t>(k)]);
  }

  if (s.classified > 0) {
    std::printf("\nstress classifications (sampled windows through the deployed net)\n");
    const double total = static_cast<double>(s.classified);
    std::printf("  none %.1f%%  medium %.1f%%  high %.1f%%  (%llu windows)\n",
                100.0 * static_cast<double>(s.class_counts[0]) / total,
                100.0 * static_cast<double>(s.class_counts[1]) / total,
                100.0 * static_cast<double>(s.class_counts[2]) / total,
                static_cast<unsigned long long>(s.classified));
  }

  std::printf("\nnote: rerunning with any thread count reproduces these numbers\n"
              "bit-for-bit; per-device RNG substreams make the fleet independent\n"
              "of worker scheduling.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_week(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_week: %s\n", e.what());
    return 1;
  }
}
