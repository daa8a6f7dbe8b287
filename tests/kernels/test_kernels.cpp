#include "kernels/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iostream>

#include "common/error.hpp"
#include "nn/presets.hpp"
#include "nn/quantize.hpp"
#include "support/test_inputs.hpp"

namespace iw::kernels {
namespace {

using iw::test::random_input;

class FixedKernelBitExact : public ::testing::TestWithParam<Target> {};

TEST_P(FixedKernelBitExact, TinyNetworkMatchesHostReference) {
  iw::Rng rng(101);
  const nn::Network net = nn::Network::create({3, 4, 2}, rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  for (int trial = 0; trial < 5; ++trial) {
    const auto input = qn.quantize_input(random_input(3, rng));
    const auto expected = qn.infer_fixed(input);
    const KernelRunResult run = run_fixed_mlp(qn, input, GetParam());
    EXPECT_EQ(run.outputs_fixed, expected) << target_name(GetParam());
  }
}

TEST_P(FixedKernelBitExact, NetworkAMatchesHostReference) {
  iw::Rng rng(202);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  const auto input = qn.quantize_input(random_input(5, rng));
  const auto expected = qn.infer_fixed(input);
  const KernelRunResult run = run_fixed_mlp(qn, input, GetParam());
  EXPECT_EQ(run.outputs_fixed, expected) << target_name(GetParam());
}

TEST_P(FixedKernelBitExact, CyclesAreDeterministic) {
  iw::Rng rng(303);
  const nn::Network net = nn::Network::create({4, 8, 3}, rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  const auto input = qn.quantize_input(random_input(4, rng));
  const KernelRunResult a = run_fixed_mlp(qn, input, GetParam());
  const KernelRunResult b = run_fixed_mlp(qn, input, GetParam());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
}

INSTANTIATE_TEST_SUITE_P(Targets, FixedKernelBitExact,
                         ::testing::Values(Target::kCortexM4, Target::kIbex,
                                           Target::kRi5cySingle,
                                           Target::kRi5cyMulti),
                         [](const ::testing::TestParamInfo<Target>& info) {
                           switch (info.param) {
                             case Target::kCortexM4: return "CortexM4";
                             case Target::kIbex: return "Ibex";
                             case Target::kRi5cySingle: return "Ri5cySingle";
                             case Target::kRi5cyMulti: return "Ri5cyMulti";
                           }
                           return "Unknown";
                         });

TEST(Kernels, NetworkACycleOrderingMatchesPaper) {
  iw::Rng rng(42);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  const auto input = qn.quantize_input(random_input(5, rng));

  const std::uint64_t m4 = run_fixed_mlp(qn, input, Target::kCortexM4).cycles;
  const std::uint64_t ibex = run_fixed_mlp(qn, input, Target::kIbex).cycles;
  const std::uint64_t single = run_fixed_mlp(qn, input, Target::kRi5cySingle).cycles;
  const std::uint64_t multi = run_fixed_mlp(qn, input, Target::kRi5cyMulti).cycles;

  std::cout << "[ cycles ] Network A: M4=" << m4 << " IBEX=" << ibex
            << " RI5CY=" << single << " 8xRI5CY=" << multi << "\n";

  // Paper's ordering (Table III): IBEX > M4 > single RI5CY > multi RI5CY.
  EXPECT_GT(ibex, m4);
  EXPECT_GT(m4, single);
  EXPECT_GT(single, multi);
  // Parallel speedup is sub-linear but real (paper: 3.7x vs single RI5CY).
  const double speedup = static_cast<double>(single) / static_cast<double>(multi);
  EXPECT_GT(speedup, 2.0);
  EXPECT_LT(speedup, 8.0);
}

TEST(Kernels, MultiCoreReportsContentionDiagnostics) {
  iw::Rng rng(7);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  const auto input = qn.quantize_input(random_input(5, rng));
  const KernelRunResult run = run_fixed_mlp(qn, input, Target::kRi5cyMulti);
  // With 8 cores streaming the same activation vector there must be some
  // TCDM bank contention, and the last layer (3 neurons) forces idle waits.
  EXPECT_GT(run.bank_conflict_stalls, 0u);
  EXPECT_GT(run.barrier_wait_cycles, 0u);
}

TEST(Kernels, FloatKernelMatchesHostFloat) {
  iw::Rng rng(55);
  const nn::Network net = nn::Network::create({3, 6, 2}, rng);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<float> input = random_input(3, rng);
    const std::vector<float> expected = net.infer(input);
    const KernelRunResult run = run_float_mlp(net, input);
    ASSERT_EQ(run.outputs_float.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // The kernel's exp-based tanh is a float approximation of std::tanh.
      EXPECT_NEAR(run.outputs_float[i], expected[i], 5e-4) << "trial " << trial;
    }
  }
}

TEST(Kernels, FloatSlowerThanFixedOnM4) {
  // Paper, Section IV: Network A float (FPU) 38478 cycles vs fixed 30210,
  // i.e. the fixed-point version is ~1.3x faster.
  iw::Rng rng(66);
  const nn::Network net = nn::make_network_a(rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  const std::vector<float> input = random_input(5, rng);

  const std::uint64_t fixed_cycles =
      run_fixed_mlp(qn, qn.quantize_input(input), Target::kCortexM4).cycles;
  const std::uint64_t float_cycles = run_float_mlp(net, input).cycles;
  std::cout << "[ cycles ] Network A on M4: float=" << float_cycles
            << " fixed=" << fixed_cycles << "\n";
  EXPECT_GT(float_cycles, fixed_cycles);
  const double ratio =
      static_cast<double>(float_cycles) / static_cast<double>(fixed_cycles);
  EXPECT_LT(ratio, 2.0);  // same order of magnitude, like the paper's 1.27x
}

TEST(Kernels, InputWidthValidated) {
  iw::Rng rng(77);
  const nn::Network net = nn::Network::create({3, 2}, rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  const std::vector<std::int32_t> bad{1, 2};
  EXPECT_THROW(run_fixed_mlp(qn, bad, Target::kIbex), Error);
  const std::vector<float> badf{1.0f};
  EXPECT_THROW(run_float_mlp(net, badf), Error);
}

TEST(Kernels, SingleNeuronNetworkWorks) {
  iw::Rng rng(88);
  const nn::Network net = nn::Network::create({1, 1}, rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  const auto input = qn.quantize_input(std::vector<float>{0.5f});
  const auto expected = qn.infer_fixed(input);
  for (Target t : {Target::kCortexM4, Target::kIbex, Target::kRi5cySingle,
                   Target::kRi5cyMulti}) {
    EXPECT_EQ(run_fixed_mlp(qn, input, t).outputs_fixed, expected)
        << target_name(t);
  }
}

}  // namespace
}  // namespace iw::kernels
