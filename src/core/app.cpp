#include "core/app.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "core/comparison.hpp"
#include "nn/batch.hpp"
#include "nn/presets.hpp"

namespace iw::core {

namespace {

/// Fixed-point label of every row of `data`. The sweep runs through the batch
/// engine: bit-exact with per-sample classify, with its overflow checks
/// applied to every row.
std::vector<std::uint8_t> fixed_labels(const nn::QuantizedNetwork& qn,
                                       const nn::Dataset& data) {
  nn::FixedBatch batch(qn);
  std::vector<const float*> rows(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) rows[i] = data.inputs[i].data();
  std::vector<std::size_t> labels(data.size());
  batch.classify(rows, labels);
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Network A has three outputs, one per stress level.
    ensure(labels[i] < 3, "StressDetectionApp: label outside the three stress levels");
    out[i] = static_cast<std::uint8_t>(labels[i]);
  }
  return out;
}

double fixed_accuracy(std::span<const std::uint8_t> labels, const nn::Dataset& data) {
  ensure(data.size() > 0, "fixed_accuracy: empty dataset");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t want = nn::argmax(std::span<const float>(data.targets[i]));
    if (labels[i] == want) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace

StressDetectionApp StressDetectionApp::build(const AppConfig& config) {
  StressDetectionApp app;
  app.dataset_ = bio::build_stress_dataset(config.dataset);

  Rng rng(config.seed);
  auto [train, test] = nn::split(app.dataset_.data, config.test_fraction, rng);
  app.train_ = std::move(train);
  app.test_ = std::move(test);
  ensure(app.train_.size() > 0 && app.test_.size() > 0,
         "StressDetectionApp: dataset too small to split");

  // Network A exactly as in the paper: 5-50-50-3, tanh.
  app.network_ = std::make_unique<nn::Network>(nn::make_network_a(rng));
  nn::train_rprop(*app.network_, app.train_, config.training);
  app.quantized_ = std::make_unique<nn::QuantizedNetwork>(
      nn::QuantizedNetwork::from(*app.network_, config.max_frac_bits));

  app.float_accuracy_ = nn::evaluate_accuracy(*app.network_, app.test_);
  app.fixed_test_labels_ = fixed_labels(*app.quantized_, app.test_);
  app.fixed_accuracy_ = fixed_accuracy(app.fixed_test_labels_, app.test_);
  return app;
}

bio::StressLevel StressDetectionApp::classify_host(const bio::RawFeatures& raw) const {
  const std::vector<float> features = normalizer().apply(raw);
  return static_cast<bio::StressLevel>(network_->classify(features));
}

bio::StressLevel StressDetectionApp::classify_fixed(const bio::RawFeatures& raw) const {
  const std::vector<float> features = normalizer().apply(raw);
  return static_cast<bio::StressLevel>(quantized_->classify(features));
}

StressDetectionApp::TargetClassification StressDetectionApp::classify_on_target(
    const bio::RawFeatures& raw, kernels::Target target) const {
  const std::vector<float> features = normalizer().apply(raw);
  const auto input = quantized_->quantize_input(features);
  const kernels::KernelRunResult run = kernels::run_fixed_mlp(*quantized_, input, target);

  TargetClassification result;
  std::size_t best = 0;
  for (std::size_t i = 1; i < run.outputs_fixed.size(); ++i) {
    if (run.outputs_fixed[i] > run.outputs_fixed[best]) best = i;
  }
  result.level = static_cast<bio::StressLevel>(best);
  result.cycles = run.cycles;
  const pwr::ProcessorPowerModel power = power_model_for(target);
  result.time_s = power.time_s(run.cycles);
  result.energy_j = power.energy_j(run.cycles);
  return result;
}

}  // namespace iw::core
