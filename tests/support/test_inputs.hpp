// Test inputs shared across suites: uniform random network inputs and the
// XOR training set.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "nn/train.hpp"

namespace iw::test {

/// `n` inputs drawn uniformly from [-1, 1).
inline std::vector<float> random_input(std::size_t n, Rng& rng) {
  std::vector<float> input(n);
  for (float& v : input) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return input;
}

/// The four XOR points with -1/+1 encoding.
inline nn::Dataset xor_dataset() {
  nn::Dataset data;
  data.add({-1.0f, -1.0f}, {-1.0f});
  data.add({-1.0f, 1.0f}, {1.0f});
  data.add({1.0f, -1.0f}, {1.0f});
  data.add({1.0f, 1.0f}, {-1.0f});
  return data;
}

}  // namespace iw::test
