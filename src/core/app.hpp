// End-to-end stress-detection application (the paper's use case).
//
// Pipeline: synthetic multi-subject ECG + GSR recordings -> windowed
// 5-feature extraction -> FANN-style training of Network A (5-50-50-3) ->
// fixed-point conversion -> deployment on a simulated execution target.
// The same feature vector can be classified on the host float network, the
// host fixed-point reference, or the instruction-set simulator, and the ISS
// result is bit-exact with the host fixed-point reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bio/dataset.hpp"
#include "kernels/runner.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "nn/train.hpp"

namespace iw::core {

struct AppConfig {
  bio::StressDatasetConfig dataset;
  nn::TrainConfig training{.max_epochs = 600, .target_mse = 2e-3};
  double test_fraction = 0.3;
  std::uint64_t seed = 42;
  int max_frac_bits = 13;
};

class StressDetectionApp {
 public:
  /// Builds the full pipeline: dataset, training, quantization, evaluation.
  static StressDetectionApp build(const AppConfig& config = {});

  const nn::Network& network() const { return *network_; }
  const nn::QuantizedNetwork& quantized() const { return *quantized_; }
  const bio::FeatureNormalizer& normalizer() const { return dataset_.normalizer; }
  const nn::Dataset& test_set() const { return test_; }

  double float_test_accuracy() const { return float_accuracy_; }
  double fixed_test_accuracy() const { return fixed_accuracy_; }

  /// Deployed fixed-point label (0..2) of test row `row`, computed once at
  /// build. The network and the test set are both fixed, so this equals
  /// `quantized().classify(test_set().inputs[row])` and costs one load.
  std::size_t fixed_test_label(std::size_t row) const { return fixed_test_labels_[row]; }

  /// Host float classification of a raw feature vector.
  bio::StressLevel classify_host(const bio::RawFeatures& raw) const;
  /// Host fixed-point reference classification.
  bio::StressLevel classify_fixed(const bio::RawFeatures& raw) const;

  struct TargetClassification {
    bio::StressLevel level = bio::StressLevel::kNone;
    std::uint64_t cycles = 0;
    double time_s = 0.0;
    double energy_j = 0.0;
  };
  /// Classification executed on the instruction-set simulator.
  TargetClassification classify_on_target(const bio::RawFeatures& raw,
                                          kernels::Target target) const;

 private:
  StressDetectionApp() = default;

  bio::StressDataset dataset_;
  nn::Dataset train_;
  nn::Dataset test_;
  std::unique_ptr<nn::Network> network_;
  std::unique_ptr<nn::QuantizedNetwork> quantized_;
  std::vector<std::uint8_t> fixed_test_labels_;
  double float_accuracy_ = 0.0;
  double fixed_accuracy_ = 0.0;
};

}  // namespace iw::core
