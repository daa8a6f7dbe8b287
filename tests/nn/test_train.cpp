#include "nn/train.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "support/test_inputs.hpp"

namespace iw::nn {
namespace {

using iw::test::xor_dataset;

TEST(Train, XorConverges) {
  Rng rng(12345);
  Network net = Network::create({2, 6, 1}, rng);
  TrainConfig config;
  config.max_epochs = 2000;
  config.target_mse = 1e-3;
  const TrainResult result = train_rprop(net, xor_dataset(), config);
  EXPECT_LE(result.final_mse, 1e-3);
  EXPECT_LT(result.epochs, config.max_epochs);
  // Check the actual decision boundary.
  EXPECT_LT(net.infer(std::vector<float>{-1.0f, -1.0f})[0], 0.0f);
  EXPECT_GT(net.infer(std::vector<float>{-1.0f, 1.0f})[0], 0.0f);
  EXPECT_GT(net.infer(std::vector<float>{1.0f, -1.0f})[0], 0.0f);
  EXPECT_LT(net.infer(std::vector<float>{1.0f, 1.0f})[0], 0.0f);
}

TEST(Train, MseDecreasesOverTraining) {
  Rng rng(99);
  Network net = Network::create({2, 4, 1}, rng);
  TrainConfig config;
  config.max_epochs = 200;
  config.target_mse = 0.0;  // never stop early
  const TrainResult result = train_rprop(net, xor_dataset(), config);
  ASSERT_GE(result.mse_history.size(), 2u);
  EXPECT_LT(result.mse_history.back(), result.mse_history.front());
}

TEST(Train, EvaluateMseMatchesTrainReport) {
  Rng rng(7);
  Network net = Network::create({2, 4, 1}, rng);
  TrainConfig config;
  config.max_epochs = 50;
  config.target_mse = 0.0;
  const TrainResult result = train_rprop(net, xor_dataset(), config);
  // After the loop, one more forward pass must reproduce an MSE no worse than
  // the last reported epoch (the final update can only have been applied
  // after measuring).
  const double mse = evaluate_mse(net, xor_dataset());
  EXPECT_LT(mse, result.mse_history.front());
}

TEST(Train, AccuracyOnSeparableData) {
  // Two trivial classes: x > 0 -> class 1, x < 0 -> class 0.
  Dataset data;
  for (int i = 1; i <= 20; ++i) {
    data.add({static_cast<float>(i) / 20.0f}, Dataset::one_hot(1, 2));
    data.add({static_cast<float>(-i) / 20.0f}, Dataset::one_hot(0, 2));
  }
  Rng rng(21);
  Network net = Network::create({1, 4, 2}, rng);
  TrainConfig config;
  config.max_epochs = 300;
  train_rprop(net, data, config);
  EXPECT_GT(evaluate_accuracy(net, data), 0.95);
}

TEST(Train, OneHotEncoding) {
  const auto t = Dataset::one_hot(2, 3);
  EXPECT_EQ(t, (std::vector<float>{-1.0f, -1.0f, 1.0f}));
  EXPECT_THROW(Dataset::one_hot(3, 3), Error);
}

TEST(Train, DatasetAddValidatesWidths) {
  Dataset data;
  data.add({1.0f, 2.0f}, {1.0f});
  EXPECT_THROW(data.add({1.0f}, {1.0f}), Error);
  EXPECT_THROW(data.add({1.0f, 2.0f}, {1.0f, 2.0f}), Error);
}

TEST(Train, SplitPreservesAllSamples) {
  Dataset data;
  for (int i = 0; i < 100; ++i) {
    data.add({static_cast<float>(i)}, {static_cast<float>(i)});
  }
  Rng rng(5);
  const auto [train, test] = split(data, 0.25, rng);
  EXPECT_EQ(test.size(), 25u);
  EXPECT_EQ(train.size(), 75u);
  double sum = 0.0;
  for (const auto& row : train.inputs) sum += row[0];
  for (const auto& row : test.inputs) sum += row[0];
  EXPECT_DOUBLE_EQ(sum, 99.0 * 100.0 / 2.0);
}

TEST(Train, EmptyDatasetRejected) {
  Rng rng(1);
  Network net = Network::create({2, 1}, rng);
  TrainConfig config;
  EXPECT_THROW(train_rprop(net, Dataset{}, config), Error);
  EXPECT_THROW(evaluate_mse(net, Dataset{}), Error);
  EXPECT_THROW(evaluate_accuracy(net, Dataset{}), Error);
}

TEST(Train, WidthMismatchRejected) {
  Rng rng(1);
  Network net = Network::create({2, 1}, rng);
  Dataset data;
  data.add({1.0f, 2.0f, 3.0f}, {1.0f});
  TrainConfig config;
  EXPECT_THROW(train_rprop(net, data, config), Error);
}

}  // namespace
}  // namespace iw::nn
