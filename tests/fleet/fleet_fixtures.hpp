// Shared fixtures of the fleet suites: the tiny classifier app, the FNV-1a
// digest the pinned serializations were recorded with, and the runner's
// per-device rows (what the per-device oracle is compared against).
#pragma once

#include <cstdint>
#include <string>

#include "core/app.hpp"
#include "fleet/fleet_stats.hpp"
#include "fleet/longitudinal/runner.hpp"

namespace iw::fleet::test {

/// The iw_fleetd --app classifier defaults: deliberately tiny, since the
/// fleet suites test the classification plumbing, not model quality. Built
/// once per test binary.
inline const core::StressDetectionApp& tiny_app() {
  static const core::StressDetectionApp app = [] {
    core::AppConfig app_config;
    app_config.dataset.subjects = 2;
    app_config.dataset.minutes_per_level = 2.0;
    app_config.training.max_epochs = 40;
    return core::StressDetectionApp::build(app_config);
  }();
  return app;
}

/// FNV-1a over a serialization.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Devices [0, devices) of `seed` for `days` days on `threads` workers, with
/// shards of at most `shard_cap` devices (the runner's default cap unless
/// given).
inline LongitudinalConfig population(std::uint64_t devices, std::uint64_t seed,
                                     int days, int threads,
                                     std::size_t shard_cap = LongitudinalConfig{}.shard_size) {
  LongitudinalConfig config;
  config.num_devices = devices;
  config.fleet_seed = seed;
  config.days = days;
  config.threads = threads;
  config.shard_size = shard_cap;
  return config;
}

/// The runner's per-device rows (FleetStats serialization) for `config`.
inline std::string runner_rows(LongitudinalConfig config) {
  config.record_outcomes = true;
  return LongitudinalRunner(config).run().outcomes.serialize();
}

}  // namespace iw::fleet::test
