#include "fleet/fleet_stats.hpp"

#include <algorithm>
#include <cstdio>

#include "common/stats.hpp"

namespace iw::fleet {
namespace {

// Sorts in place: callers hand over scratch vectors they no longer need, so
// computing five percentiles costs one sort and zero copies (the generic
// stats::percentile() would copy + sort per call).
FleetStats::Percentiles percentiles_of(std::vector<double>& values) {
  FleetStats::Percentiles p;
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
  };
  p.p5 = at(5.0);
  p.p25 = at(25.0);
  p.p50 = at(50.0);
  p.p75 = at(75.0);
  p.p95 = at(95.0);
  return p;
}

void append_f(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %s=%.17g", key, v);
  out += buf;
}

void append_u(std::string& out, const char* key, unsigned long long v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %s=%llu", key, v);
  out += buf;
}

void append_percentiles(std::string& out, const char* key,
                        const FleetStats::Percentiles& p) {
  out += ' ';
  out += key;
  out += ":";
  char buf[160];
  std::snprintf(buf, sizeof buf, "[%.17g,%.17g,%.17g,%.17g,%.17g]", p.p5, p.p25,
                p.p50, p.p75, p.p95);
  out += buf;
}

}  // namespace

void FleetStats::add(const DeviceOutcome& outcome) { outcomes_.push_back(outcome); }

void FleetStats::merge(const FleetStats& other) {
  // Reserve up front: the runner folds hundreds of shards into one aggregate,
  // and growing geometrically through that reduction re-copies the accumulated
  // table log-many times.
  outcomes_.reserve(outcomes_.size() + other.outcomes_.size());
  outcomes_.insert(outcomes_.end(), other.outcomes_.begin(), other.outcomes_.end());
}

std::vector<DeviceOutcome> FleetStats::outcome_table() const {
  std::vector<DeviceOutcome> table = outcomes_;
  std::sort(table.begin(), table.end(),
            [](const DeviceOutcome& a, const DeviceOutcome& b) {
              return a.device_id < b.device_id;
            });
  return table;
}

namespace {

FleetStats::Summary summarize_table(const std::vector<DeviceOutcome>& table) {
  FleetStats::Summary s;
  s.devices = table.size();

  std::vector<double> final_soc, min_soc, dpm, intake_uw;
  final_soc.reserve(table.size());
  min_soc.reserve(table.size());
  dpm.reserve(table.size());
  intake_uw.reserve(table.size());

  std::size_t self_sustaining = 0;
  for (const DeviceOutcome& d : table) {
    s.detections_attempted += d.detections_attempted;
    s.detections_completed += d.detections_completed;
    s.detections_skipped += d.detections_skipped;
    s.harvested_j += d.harvested_j;
    s.consumed_j += d.consumed_j;
    s.classified += d.classified;
    for (std::size_t i = 0; i < s.class_counts.size(); ++i) {
      s.class_counts[i] += d.class_counts[i];
    }
    if (d.self_sustaining) ++self_sustaining;
    const auto profile = static_cast<std::size_t>(d.profile);
    const auto policy = static_cast<std::size_t>(d.policy);
    if (profile < s.per_profile.size()) ++s.per_profile[profile];
    if (policy < s.per_policy.size()) ++s.per_policy[policy];

    final_soc.push_back(d.final_soc);
    min_soc.push_back(d.min_soc);
    dpm.push_back(d.detections_per_min);
    intake_uw.push_back(d.mean_intake_w * 1e6);
  }
  if (!table.empty()) {
    s.fraction_self_sustaining =
        static_cast<double>(self_sustaining) / static_cast<double>(table.size());
  }
  s.final_soc = percentiles_of(final_soc);
  s.min_soc = percentiles_of(min_soc);
  s.detections_per_min = percentiles_of(dpm);
  s.intake_uw = percentiles_of(intake_uw);
  return s;
}

}  // namespace

FleetStats::Summary FleetStats::summarize() const {
  return summarize_table(outcome_table());
}

std::string FleetStats::serialize() const {
  // One sorted table pass serves both the summary and the per-device rows
  // (summarize() + the row loop used to each sort their own copy).
  const std::vector<DeviceOutcome> table = outcome_table();
  const Summary s = summarize_table(table);
  std::string out = "fleet";
  append_u(out, "devices", s.devices);
  append_u(out, "attempted", s.detections_attempted);
  append_u(out, "completed", s.detections_completed);
  append_u(out, "skipped", s.detections_skipped);
  append_f(out, "harvested_j", s.harvested_j);
  append_f(out, "consumed_j", s.consumed_j);
  append_f(out, "self_sustaining", s.fraction_self_sustaining);
  append_u(out, "classified", s.classified);
  append_u(out, "class_none", s.class_counts[0]);
  append_u(out, "class_medium", s.class_counts[1]);
  append_u(out, "class_high", s.class_counts[2]);
  append_percentiles(out, "final_soc", s.final_soc);
  append_percentiles(out, "min_soc", s.min_soc);
  append_percentiles(out, "det_per_min", s.detections_per_min);
  append_percentiles(out, "intake_uw", s.intake_uw);
  out += '\n';

  for (const DeviceOutcome& d : table) {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "dev %llu %s %s days=%d att=%llu ok=%llu skip=%llu "
        "harv=%.17g cons=%.17g soc0=%.17g soc=%.17g min=%.17g dpm=%.17g "
        "intake=%.17g ss=%d cls=%llu/%llu/%llu\n",
        static_cast<unsigned long long>(d.device_id), to_string(d.profile),
        to_string(d.policy), d.days_run,
        static_cast<unsigned long long>(d.detections_attempted),
        static_cast<unsigned long long>(d.detections_completed),
        static_cast<unsigned long long>(d.detections_skipped), d.harvested_j,
        d.consumed_j, d.initial_soc, d.final_soc, d.min_soc, d.detections_per_min,
        d.mean_intake_w, d.self_sustaining ? 1 : 0,
        static_cast<unsigned long long>(d.class_counts[0]),
        static_cast<unsigned long long>(d.class_counts[1]),
        static_cast<unsigned long long>(d.class_counts[2]));
    out += buf;
  }
  return out;
}

FleetStats run_per_device_oracle(std::uint64_t fleet_seed, std::size_t num_devices,
                                 int days, const core::StressDetectionApp* app,
                                 DayDriver driver) {
  FleetStats stats;
  // Devices run strictly one after another, so they can share one scratch;
  // its calibrated harvester is bit-identical to each device fitting its own.
  DeviceScratch scratch;
  for (std::uint64_t id = 0; id < num_devices; ++id) {
    Scenario scenario = sample_scenario(fleet_seed, id);
    scenario.days = days;
    DeviceInstance device(scenario, app, &scratch);
    device.set_fast_day(driver == DayDriver::kFast);
    device.run();
    stats.add(device.outcome());
  }
  return stats;
}

}  // namespace iw::fleet
