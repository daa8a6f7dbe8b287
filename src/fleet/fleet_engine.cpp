#include "fleet/fleet_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "fleet/cohort_runner.hpp"
#include "fleet/device_instance.hpp"

namespace iw::fleet {

FleetEngine::FleetEngine(FleetConfig config) : config_(config) {
  ensure(config_.num_devices > 0, "FleetEngine: need at least one device");
  ensure(config_.threads >= 1, "FleetEngine: need at least one thread");
  ensure(config_.days >= 1, "FleetEngine: need at least one day");
  ensure(config_.chunk_size > 0, "FleetEngine: chunk size must be positive");
}

FleetResult FleetEngine::run() const {
  const std::size_t n = config_.num_devices;
  const std::size_t chunk = config_.chunk_size;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;

  // One stats shard per *chunk* (not per worker): which thread simulates a
  // chunk then no longer matters, because shards are merged by chunk index.
  std::vector<FleetStats> shards(num_chunks);
  if (!config_.record_outcomes) {
    for (FleetStats& shard : shards) shard.set_record_outcomes(false);
  }
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&] {
    try {
      if (config_.cohort_day && config_.fast_day) {
        // Cohort mode: one chunk = one lockstep cohort. The runner's caches
        // and buffers are per-worker scratch (results depend on nothing but
        // the scenarios), so reuse across chunks keeps thread-count
        // independence intact.
        CohortRunner runner(config_.app);
        std::vector<Scenario> scenarios;
        scenarios.reserve(chunk);
        while (true) {
          const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (c >= num_chunks || failed.load(std::memory_order_relaxed)) break;
          const std::size_t begin = c * chunk;
          const std::size_t end = std::min(begin + chunk, n);
          scenarios.clear();
          for (std::size_t id = begin; id < end; ++id) {
            Scenario scenario = sample_scenario(config_.fleet_seed, id);
            scenario.days = config_.days;
            scenarios.push_back(scenario);
          }
          runner.run(scenarios, shards[c]);
        }
        return;
      }
      // Per-worker day-profile buffers: devices run strictly one after
      // another on a worker, so they can share the scratch, and profile
      // building/scaling stops allocating after the first device.
      DeviceScratch scratch;
      while (true) {
        const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= num_chunks || failed.load(std::memory_order_relaxed)) break;
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        for (std::size_t id = begin; id < end; ++id) {
          Scenario scenario = sample_scenario(config_.fleet_seed, id);
          scenario.days = config_.days;
          DeviceInstance device(scenario, config_.app, &scratch);
          if (!config_.fast_day) device.set_fast_day(false);
          device.run();
          shards[c].add(device.outcome());
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  const int threads =
      static_cast<int>(std::min<std::size_t>(config_.threads, num_chunks));
  const auto t0 = std::chrono::steady_clock::now();
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (first_error) std::rethrow_exception(first_error);

  FleetResult result;
  if (!config_.record_outcomes) result.stats.set_record_outcomes(false);
  // Deterministic reduction: chunk order, which is device-id order.
  for (const FleetStats& shard : shards) result.stats.merge(shard);
  result.devices = n;
  result.threads_used = threads;
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  result.devices_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(n) / result.wall_s : 0.0;
  result.device_days_per_sec = result.devices_per_sec * config_.days;
  return result;
}

}  // namespace iw::fleet
