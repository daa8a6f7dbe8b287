// Tests for the SGD trainer and early stopping.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/train.hpp"
#include "support/test_inputs.hpp"

namespace iw::nn {
namespace {

using iw::test::xor_dataset;

/// A linearly separable 2-class feature cloud.
Dataset blobs(std::uint64_t seed, int per_class = 60) {
  Rng rng(seed);
  Dataset data;
  for (int i = 0; i < per_class; ++i) {
    data.add({static_cast<float>(rng.normal(0.5, 0.15)),
              static_cast<float>(rng.normal(0.5, 0.15))},
             Dataset::one_hot(0, 2));
    data.add({static_cast<float>(rng.normal(-0.5, 0.15)),
              static_cast<float>(rng.normal(-0.5, 0.15))},
             Dataset::one_hot(1, 2));
  }
  return data;
}

TEST(TrainSgd, SolvesXor) {
  Rng rng(31);
  Network net = Network::create({2, 8, 1}, rng);
  SgdConfig config;
  config.max_epochs = 3000;
  config.batch_size = 4;
  config.learning_rate = 0.1;
  const TrainResult result = train_sgd(net, xor_dataset(), config);
  EXPECT_LE(result.final_mse, 0.05);
  EXPECT_LT(net.infer(std::vector<float>{1.0f, 1.0f})[0], 0.0f);
  EXPECT_GT(net.infer(std::vector<float>{1.0f, -1.0f})[0], 0.0f);
}

TEST(TrainSgd, MseTrendsDown) {
  Rng rng(32);
  Network net = Network::create({2, 6, 2}, rng);
  SgdConfig config;
  config.max_epochs = 80;
  config.target_mse = 0.0;
  const TrainResult result = train_sgd(net, blobs(1), config);
  ASSERT_GE(result.mse_history.size(), 10u);
  EXPECT_LT(result.mse_history.back(), result.mse_history.front());
}

TEST(TrainSgd, BatchSizeOneWorks) {
  Rng rng(33);
  Network net = Network::create({2, 6, 2}, rng);
  SgdConfig config;
  config.max_epochs = 40;
  config.batch_size = 1;
  config.learning_rate = 0.02;
  const TrainResult result = train_sgd(net, blobs(2), config);
  EXPECT_GT(evaluate_accuracy(net, blobs(2)), 0.9);
  EXPECT_LE(result.epochs, 40u);
}

TEST(TrainSgd, Validation) {
  Rng rng(34);
  Network net = Network::create({2, 1}, rng);
  SgdConfig bad;
  bad.batch_size = 0;
  EXPECT_THROW(train_sgd(net, xor_dataset(), bad), Error);
  bad = SgdConfig{};
  bad.learning_rate = 0.0;
  EXPECT_THROW(train_sgd(net, xor_dataset(), bad), Error);
  bad = SgdConfig{};
  bad.momentum = 1.0;
  EXPECT_THROW(train_sgd(net, xor_dataset(), bad), Error);
  EXPECT_THROW(train_sgd(net, Dataset{}, SgdConfig{}), Error);
}

TEST(EarlyStopping, StopsBeforeMaxAndRestoresBest) {
  Rng rng(35);
  // Tiny training set + oversized network: overfits quickly, so validation
  // MSE bottoms out and patience fires long before max_epochs.
  Dataset train = blobs(3, 4);
  Dataset validation = blobs(4, 40);
  // Inject label noise into training to force divergence of train/val MSE.
  for (std::size_t i = 0; i < train.size(); i += 3) {
    for (float& t : train.targets[i]) t = -t;
  }
  Network net = Network::create({2, 32, 2}, rng);
  TrainConfig config;
  config.max_epochs = 2000;
  config.target_mse = 0.0;
  const TrainResult result =
      train_rprop_early_stopping(net, train, validation, config, 20);
  EXPECT_LT(result.epochs, 2000u);
  // The restored network must reproduce the reported best validation MSE.
  EXPECT_NEAR(evaluate_mse(net, validation), result.final_mse, 1e-9);
}

TEST(EarlyStopping, GeneralizesOnCleanData) {
  Rng rng(36);
  Network net = Network::create({2, 8, 2}, rng);
  TrainConfig config;
  config.max_epochs = 500;
  train_rprop_early_stopping(net, blobs(5), blobs(6), config, 25);
  EXPECT_GT(evaluate_accuracy(net, blobs(7)), 0.9);
}

TEST(EarlyStopping, Validation) {
  Rng rng(37);
  Network net = Network::create({2, 1}, rng);
  TrainConfig config;
  EXPECT_THROW(
      train_rprop_early_stopping(net, xor_dataset(), xor_dataset(), config, 0),
      Error);
  EXPECT_THROW(
      train_rprop_early_stopping(net, Dataset{}, xor_dataset(), config, 5), Error);
}

}  // namespace
}  // namespace iw::nn
