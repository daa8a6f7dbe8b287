// Reproduces Section IV-A: self-sustainability. 6 h of 700 lx indoor light
// plus worst-case TEG harvesting collects ~21.44 J per day; divided by the
// 602.2 uJ detection cost that supports ~24 stress detections per minute.
// Also runs the closed-loop day simulation (battery in the loop) against the
// static analysis: a day is energy-neutral only if the battery ends it at or
// above its starting SoC.
#include <cstdio>

#include "../bench/report.hpp"
#include "core/sustainability.hpp"
#include "platform/device.hpp"

int main() {
  const iw::core::SustainabilityReport report =
      iw::core::paper_sustainability_scenario();

  iw::bench::print_header("Section IV-A - self-sustainability (static analysis)");
  iw::bench::print_row_header("quantity");
  iw::bench::print_row("harvested energy [J/day]", 21.44, report.harvested_j_per_day,
                       "%14.2f");
  iw::bench::print_row("  solar share [J/day]", 19.44, report.solar_j_per_day, "%14.2f");
  iw::bench::print_row("  TEG share [J/day]", 2.07, report.teg_j_per_day, "%14.2f");
  iw::bench::print_row("energy per detection [uJ]", 602.2,
                       report.energy_per_detection_j * 1e6, "%14.1f");
  iw::bench::print_row("detections per minute", 24.0, report.detections_per_minute,
                       "%14.1f");

  // Closed-loop check: run the device for a day at 24 detections/minute.
  const iw::hv::DualSourceHarvester harvester =
      iw::hv::DualSourceHarvester::calibrated();
  iw::platform::DeviceConfig config;
  config.detection = iw::platform::make_detection_cost({});
  config.detection_period_s = 60.0 / 24.0;
  config.initial_soc = 0.5;
  const iw::platform::DaySimulationResult day =
      iw::platform::simulate_day(config, harvester, iw::hv::paper_worst_case_day());

  std::printf("\n  Closed-loop day simulation at 24 detections/min:\n");
  std::printf("  detections completed %llu / attempted %llu (skipped %llu)\n",
              static_cast<unsigned long long>(day.detections_completed),
              static_cast<unsigned long long>(day.detections_attempted),
              static_cast<unsigned long long>(day.detections_skipped));
  std::printf("  harvested %.2f J, consumed %.2f J, net %+.3f J, SoC %.5f -> %.5f\n",
              day.harvested_j, day.consumed_j, day.harvested_j - day.consumed_j,
              day.initial_soc, day.final_soc);
  std::printf("  energy-neutral: %s\n", day.final_soc >= day.initial_soc ? "yes" : "no");

  std::printf("\n  Detection-rate sweep (end-of-day SoC from 0.5):\n");
  std::printf("  %14s %14s %12s %10s\n", "det/min", "final SoC", "net [J]", "neutral");
  for (double rate : {1.0, 6.0, 12.0, 23.0, 24.0, 30.0, 40.0}) {
    iw::platform::DeviceConfig c = config;
    c.detection_period_s = 60.0 / rate;
    const auto r = iw::platform::simulate_day(c, harvester, iw::hv::paper_worst_case_day());
    std::printf("  %14.0f %14.5f %+12.3f %10s\n", rate, r.final_soc,
                r.harvested_j - r.consumed_j, r.final_soc >= r.initial_soc ? "yes" : "no");
  }
  return 0;
}
