#include <gtest/gtest.h>

#include "common/error.hpp"
#include "kernels/runner.hpp"
#include "nn/presets.hpp"
#include "nn/quantize16.hpp"
#include "support/test_inputs.hpp"

namespace iw::kernels {
namespace {

using iw::test::random_input;

class ParallelSimd : public ::testing::TestWithParam<int> {};

TEST_P(ParallelSimd, BitExactWithHostReference) {
  iw::Rng rng(21);
  const nn::Network net = nn::Network::create({6, 10, 4}, rng);
  const nn::QuantizedNetwork16 qn = nn::QuantizedNetwork16::from(net);
  const auto input = qn.quantize_input(random_input(6, rng));
  const auto expected = qn.infer_fixed(input);
  EXPECT_EQ(run_simd_mlp_parallel(qn, input, GetParam()).outputs_fixed16, expected)
      << GetParam() << " cores";
}

TEST_P(ParallelSimd, OddWidthsExercisePadPath) {
  iw::Rng rng(22);
  const nn::Network net = nn::Network::create({5, 7, 3}, rng);
  const nn::QuantizedNetwork16 qn = nn::QuantizedNetwork16::from(net);
  const auto input = qn.quantize_input(random_input(5, rng));
  EXPECT_EQ(run_simd_mlp_parallel(qn, input, GetParam()).outputs_fixed16,
            qn.infer_fixed(input))
      << GetParam() << " cores";
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, ParallelSimd, ::testing::Values(1, 2, 4, 8));

TEST(ParallelSimdPerf, NetworkABitExactAndFastest) {
  iw::Rng rng(23);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork qn32 = nn::QuantizedNetwork::from(net);
  const nn::QuantizedNetwork16 qn16 = nn::QuantizedNetwork16::from(net);
  const std::vector<float> input = random_input(5, rng);
  const auto fixed16 = qn16.quantize_input(input);

  const auto parallel_simd = run_simd_mlp_parallel(qn16, fixed16, 8);
  EXPECT_EQ(parallel_simd.outputs_fixed16, qn16.infer_fixed(fixed16));

  // The peak configuration beats both the scalar 8-core run and the
  // single-core SIMD run.
  const auto scalar_multi =
      run_fixed_mlp(qn32, qn32.quantize_input(input), Target::kRi5cyMulti);
  const auto simd_single = run_simd_mlp(qn16, fixed16);
  EXPECT_LT(parallel_simd.cycles, scalar_multi.cycles);
  EXPECT_LT(parallel_simd.cycles, simd_single.cycles);
}

TEST(ParallelSimdPerf, NetworkBScalesWell) {
  iw::Rng rng(24);
  const nn::Network net = nn::make_network_b(rng);
  const nn::QuantizedNetwork16 qn = nn::QuantizedNetwork16::from(net);
  std::vector<float> input = random_input(100, rng);
  const auto fixed = qn.quantize_input(input);

  const auto one = run_simd_mlp_parallel(qn, fixed, 1);
  const auto eight = run_simd_mlp_parallel(qn, fixed, 8);
  EXPECT_EQ(one.outputs_fixed16, eight.outputs_fixed16);
  const double speedup =
      static_cast<double>(one.cycles) / static_cast<double>(eight.cycles);
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 8.0);
}

TEST(ParallelSimdPerf, Validation) {
  iw::Rng rng(25);
  const nn::Network net = nn::Network::create({4, 2}, rng);
  const nn::QuantizedNetwork16 qn = nn::QuantizedNetwork16::from(net);
  const std::vector<std::int16_t> bad{1};
  EXPECT_THROW(run_simd_mlp_parallel(qn, bad, 8), Error);
  const auto input = qn.quantize_input(std::vector<float>{0.1f, 0.2f, 0.3f, 0.4f});
  EXPECT_THROW(run_simd_mlp_parallel(qn, input, 3), Error);  // not a power of two
}

}  // namespace
}  // namespace iw::kernels
