#include <gtest/gtest.h>

#include "common/error.hpp"
#include "kernels/runner.hpp"
#include "nn/presets.hpp"
#include "nn/quantize.hpp"
#include "nn/quantize16.hpp"
#include "support/test_inputs.hpp"

namespace iw::kernels {
namespace {

using iw::test::random_input;

TEST(SimdKernel, BitExactWithHostReferenceTinyNet) {
  iw::Rng rng(11);
  const nn::Network net = nn::Network::create({4, 6, 2}, rng);
  const nn::QuantizedNetwork16 qn = nn::QuantizedNetwork16::from(net);
  for (int trial = 0; trial < 5; ++trial) {
    const auto input = qn.quantize_input(random_input(4, rng));
    const auto expected = qn.infer_fixed(input);
    const KernelRunResult run = run_simd_mlp(qn, input);
    EXPECT_EQ(run.outputs_fixed16, expected) << "trial " << trial;
  }
}

TEST(SimdKernel, BitExactWithOddWidths) {
  // Odd input count and odd hidden width exercise the pad path.
  iw::Rng rng(12);
  const nn::Network net = nn::Network::create({5, 7, 3}, rng);
  const nn::QuantizedNetwork16 qn = nn::QuantizedNetwork16::from(net);
  const auto input = qn.quantize_input(random_input(5, rng));
  EXPECT_EQ(run_simd_mlp(qn, input).outputs_fixed16, qn.infer_fixed(input));
}

TEST(SimdKernel, BitExactOnNetworkA) {
  iw::Rng rng(13);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork16 qn = nn::QuantizedNetwork16::from(net);
  const auto input = qn.quantize_input(random_input(5, rng));
  EXPECT_EQ(run_simd_mlp(qn, input).outputs_fixed16, qn.infer_fixed(input));
}

TEST(SimdKernel, FasterThanScalarRi5cy) {
  iw::Rng rng(14);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork qn32 = nn::QuantizedNetwork::from(net);
  const nn::QuantizedNetwork16 qn16 = nn::QuantizedNetwork16::from(net);
  const std::vector<float> input = random_input(5, rng);

  const std::uint64_t scalar =
      run_fixed_mlp(qn32, qn32.quantize_input(input), Target::kRi5cySingle).cycles;
  const std::uint64_t simd = run_simd_mlp(qn16, qn16.quantize_input(input)).cycles;
  // Two MACs per cycle plus fewer loads: expect a healthy speedup.
  EXPECT_LT(simd, scalar);
  const double speedup = static_cast<double>(scalar) / static_cast<double>(simd);
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 4.0);
}

TEST(SimdKernel, DecisionMatchesScalarPath) {
  iw::Rng rng(15);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork qn32 = nn::QuantizedNetwork::from(net);
  const nn::QuantizedNetwork16 qn16 = nn::QuantizedNetwork16::from(net);
  int agree = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<float> input = random_input(5, rng);
    const auto out32 =
        run_fixed_mlp(qn32, qn32.quantize_input(input), Target::kRi5cySingle)
            .outputs_fixed;
    const auto out16 = run_simd_mlp(qn16, qn16.quantize_input(input)).outputs_fixed16;
    const std::size_t pick32 = static_cast<std::size_t>(
        std::max_element(out32.begin(), out32.end()) - out32.begin());
    const std::size_t pick16 = static_cast<std::size_t>(
        std::max_element(out16.begin(), out16.end()) - out16.begin());
    agree += pick32 == pick16 ? 1 : 0;
  }
  EXPECT_GE(agree, 18);
}

TEST(SimdKernel, InputWidthValidated) {
  iw::Rng rng(16);
  const nn::Network net = nn::Network::create({4, 2}, rng);
  const nn::QuantizedNetwork16 qn = nn::QuantizedNetwork16::from(net);
  const std::vector<std::int16_t> bad{1, 2};
  EXPECT_THROW(run_simd_mlp(qn, bad), Error);
}

}  // namespace
}  // namespace iw::kernels
