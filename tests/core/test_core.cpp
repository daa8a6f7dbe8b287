#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/app.hpp"
#include "core/comparison.hpp"
#include "core/sustainability.hpp"
#include "nn/presets.hpp"

namespace iw::core {
namespace {

AppConfig fast_app_config() {
  AppConfig config;
  config.dataset.subjects = 2;
  config.dataset.minutes_per_level = 5.0;
  config.training.max_epochs = 300;
  return config;
}

// The app build trains a network; share one instance across tests.
const StressDetectionApp& shared_app() {
  static const StressDetectionApp app = StressDetectionApp::build(fast_app_config());
  return app;
}

TEST(Comparison, PowerModelMapping) {
  EXPECT_EQ(power_model_for(kernels::Target::kCortexM4).name,
            pwr::nordic_m4().name);
  EXPECT_EQ(power_model_for(kernels::Target::kRi5cyMulti).name,
            pwr::mr_wolf_cluster_multi8().name);
}

TEST(Comparison, TableRowsOrderedLikePaper) {
  Rng rng(1);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  std::vector<float> input(5, 0.3f);
  const NetworkComparison cmp =
      compare_targets("Network A", qn, qn.quantize_input(input));
  ASSERT_EQ(cmp.rows.size(), 4u);
  // Cycles: IBEX > M4 > single RI5CY > multi RI5CY (Table III ordering).
  EXPECT_GT(cmp.rows[1].cycles, cmp.rows[0].cycles);
  EXPECT_GT(cmp.rows[0].cycles, cmp.rows[2].cycles);
  EXPECT_GT(cmp.rows[2].cycles, cmp.rows[3].cycles);
  // Energy: IBEX is the most efficient single-core option (Table IV shape).
  EXPECT_LT(cmp.rows[1].energy_j, cmp.rows[0].energy_j);
  EXPECT_LT(cmp.rows[3].energy_j, cmp.rows[0].energy_j);
  // Wall clock follows frequency: the 8-core cluster is fastest.
  for (const TargetResult& row : cmp.rows) {
    EXPECT_GT(row.time_s, 0.0);
    EXPECT_GT(row.energy_j, 0.0);
  }
}

TEST(Comparison, FloatFixedSpeedup) {
  Rng rng(2);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  std::vector<float> input(5, -0.2f);
  const FloatFixedComparison cmp = compare_float_fixed_m4(net, qn, input);
  // Paper: fixed point is ~1.3x faster than float on the M4F.
  EXPECT_GT(cmp.speedup(), 1.0);
  EXPECT_LT(cmp.speedup(), 2.0);
}

TEST(Sustainability, PaperScenarioReproduced) {
  const SustainabilityReport report = paper_sustainability_scenario();
  // Paper: 21.44 J/day and "up to 24 detections per minute".
  EXPECT_NEAR(report.harvested_j_per_day, 21.44, 1.0);
  EXPECT_NEAR(report.detections_per_minute, 24.0, 1.5);
  EXPECT_TRUE(report.sustainable_at(24.0 - 1.5));
  EXPECT_FALSE(report.sustainable_at(100.0));
  // Decomposition: ~19.4 J solar + ~2.1 J TEG.
  EXPECT_NEAR(report.solar_j_per_day, 19.44, 0.3);
  EXPECT_NEAR(report.teg_j_per_day, 2.07, 0.3);
}

TEST(Sustainability, ScalesInverselyWithDetectionCost) {
  const hv::DualSourceHarvester harvester = hv::DualSourceHarvester::calibrated();
  const hv::DayProfile day = hv::paper_worst_case_day();
  platform::DetectionCostParams cheap;
  platform::DetectionCostParams expensive;
  expensive.classification_cycles = 30210;
  expensive.classification_processor = pwr::nordic_m4();
  const auto cheap_report = analyze_sustainability(
      harvester, day, platform::make_detection_cost(cheap));
  const auto pricey_report = analyze_sustainability(
      harvester, day, platform::make_detection_cost(expensive));
  EXPECT_GT(cheap_report.detections_per_day, pricey_report.detections_per_day);
}

TEST(Sustainability, Validation) {
  const hv::DualSourceHarvester harvester = hv::DualSourceHarvester::calibrated();
  platform::DetectionCost zero;
  EXPECT_THROW(analyze_sustainability(harvester, hv::paper_worst_case_day(), zero),
               Error);
}

TEST(App, TrainsToUsefulAccuracy) {
  const StressDetectionApp& app = shared_app();
  EXPECT_GT(app.float_test_accuracy(), 0.7);  // 3-class chance is 0.33
  // Quantization costs at most a few points of accuracy.
  EXPECT_GT(app.fixed_test_accuracy(), app.float_test_accuracy() - 0.1);
}

TEST(App, NetworkHasPaperTopology) {
  const StressDetectionApp& app = shared_app();
  EXPECT_EQ(app.network().num_neurons(), 108u);
  EXPECT_EQ(app.network().num_weights(), 3003u);
  EXPECT_EQ(app.quantized().num_outputs(), 3u);
}

TEST(App, FixedTestLabelsMatchPerSampleClassify) {
  // The fleet counts classifications by this table instead of running the
  // network; it must equal per-sample inference on every test row. Covers
  // the small iw_fleetd --app build and the default build.
  AppConfig tiny;
  tiny.dataset.subjects = 2;
  tiny.dataset.minutes_per_level = 2.0;
  tiny.training.max_epochs = 40;
  for (const AppConfig& config : {tiny, AppConfig{}}) {
    const StressDetectionApp app = StressDetectionApp::build(config);
    const nn::Dataset& test = app.test_set();
    ASSERT_GT(test.size(), 0u);
    for (std::size_t row = 0; row < test.size(); ++row) {
      ASSERT_EQ(app.fixed_test_label(row), app.quantized().classify(test.inputs[row]))
          << "row " << row;
    }
  }
}

TEST(App, HostAndFixedClassificationsAgreeMostly) {
  const StressDetectionApp& app = shared_app();
  bio::RawFeatures calm{};
  calm[bio::kFeatRmssd] = 0.05;
  calm[bio::kFeatSdsd] = 0.05;
  calm[bio::kFeatNn50] = 10.0;
  calm[bio::kFeatGsrl] = 1.5;
  calm[bio::kFeatGsrh] = 0.1;
  // Not asserting the label (depends on training), only pipeline agreement.
  EXPECT_EQ(app.classify_fixed(calm), app.classify_host(calm));
}

TEST(App, IssClassificationMatchesHostFixed) {
  const StressDetectionApp& app = shared_app();
  bio::RawFeatures sample{};
  sample[bio::kFeatRmssd] = 0.02;
  sample[bio::kFeatSdsd] = 0.015;
  sample[bio::kFeatNn50] = 1.0;
  sample[bio::kFeatGsrl] = 0.8;
  sample[bio::kFeatGsrh] = 0.5;
  for (kernels::Target target :
       {kernels::Target::kCortexM4, kernels::Target::kRi5cyMulti}) {
    const auto result = app.classify_on_target(sample, target);
    EXPECT_EQ(result.level, app.classify_fixed(sample));
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.energy_j, 0.0);
  }
}

TEST(App, TargetEnergiesMatchTableIvScale) {
  const StressDetectionApp& app = shared_app();
  bio::RawFeatures sample{};
  const auto m4 = app.classify_on_target(sample, kernels::Target::kCortexM4);
  const auto multi = app.classify_on_target(sample, kernels::Target::kRi5cyMulti);
  // Network A energies: ~5 uJ on the M4, ~1.2 uJ on the 8-core cluster.
  EXPECT_NEAR(m4.energy_j * 1e6, 5.1, 1.5);
  EXPECT_NEAR(multi.energy_j * 1e6, 1.2, 0.4);
}

}  // namespace
}  // namespace iw::core
