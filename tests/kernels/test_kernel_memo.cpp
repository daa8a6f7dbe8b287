// The kernel runner's compile memo (src/kernels/runner.cpp): a call whose
// image is already compiled must return exactly what the cold call that
// compiled it returned, the memo key must separate every input of codegen
// and analysis (down to single costs of same-named profiles), weights and
// inputs must never be baked into a kept image, a rejected image must never
// be kept, and concurrent callers must get the serial results.
#include "kernels/runner.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "nn/presets.hpp"
#include "nn/quantize.hpp"
#include "nn/quantize16.hpp"
#include "support/test_inputs.hpp"

namespace iw::kernels {
namespace {

using iw::test::random_input;

constexpr Target kTargets[] = {Target::kCortexM4, Target::kIbex, Target::kRi5cySingle,
                               Target::kRi5cyMulti};

void expect_same(const KernelRunResult& a, const KernelRunResult& b, const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.outputs_fixed, b.outputs_fixed) << what;
  EXPECT_EQ(a.outputs_fixed16, b.outputs_fixed16) << what;
  EXPECT_EQ(a.outputs_float, b.outputs_float) << what;
  EXPECT_EQ(a.bank_conflict_stalls, b.bank_conflict_stalls) << what;
  EXPECT_EQ(a.barrier_wait_cycles, b.barrier_wait_cycles) << what;
  EXPECT_TRUE(a.histogram == b.histogram) << what;
  EXPECT_EQ(a.static_min_cycles, b.static_min_cycles) << what;
  EXPECT_EQ(a.static_max_cycles, b.static_max_cycles) << what;
  EXPECT_EQ(a.static_stack_bytes, b.static_stack_bytes) << what;
}

nn::Network small_net(Rng& rng) { return nn::Network::create({5, 12, 7, 3}, rng); }

/// One network in every form the entry points take, plus one input.
struct Fixture {
  nn::Network net;
  nn::QuantizedNetwork qn;
  nn::QuantizedNetwork16 qn16;
  std::vector<float> input;
  std::vector<std::int32_t> input_fixed;
  std::vector<std::int16_t> input16;

  explicit Fixture(std::uint64_t seed, nn::Network (*make)(Rng&) = small_net)
      : net([&] {
          Rng rng(seed);
          return make(rng);
        }()),
        qn(nn::QuantizedNetwork::from(net)),
        qn16(nn::QuantizedNetwork16::from(net)) {
    Rng rng(seed ^ 0xfeedULL);
    input = random_input(net.num_inputs(), rng);
    input_fixed = qn.quantize_input(input);
    input16 = qn16.quantize_input(input);
  }
};

TEST(KernelMemo, HitEqualsColdCallForEveryEntryPoint) {
  const Fixture f(11);
  std::vector<std::pair<std::string, std::function<KernelRunResult()>>> calls;
  for (const Target target : kTargets) {
    calls.emplace_back("run_fixed_mlp " + target_name(target),
                       [&f, target] { return run_fixed_mlp(f.qn, f.input_fixed, target); });
  }
  calls.emplace_back("run_fixed_mlp_custom generic@ri5cy", [&f] {
    return run_fixed_mlp_custom(f.qn, f.input_fixed, Flavor::kGeneric, rv::ri5cy());
  });
  for (const int cores : {1, 2, 4, 8}) {
    calls.emplace_back("run_fixed_mlp_parallel " + std::to_string(cores), [&f, cores] {
      return run_fixed_mlp_parallel(f.qn, f.input_fixed, cores);
    });
    calls.emplace_back("run_simd_mlp_parallel " + std::to_string(cores), [&f, cores] {
      return run_simd_mlp_parallel(f.qn16, f.input16, cores);
    });
  }
  calls.emplace_back("run_simd_mlp", [&f] { return run_simd_mlp(f.qn16, f.input16); });
  calls.emplace_back("run_float_mlp", [&f] { return run_float_mlp(f.net, f.input); });

  std::vector<KernelRunResult> colds;
  for (const auto& [what, call] : calls) {
    clear_kernel_memo();
    const KernelRunResult& cold = colds.emplace_back(call());
    KernelMemoStats stats = kernel_memo_stats();
    EXPECT_EQ(stats.misses, 1u) << what;
    EXPECT_EQ(stats.hits, 0u) << what;
    EXPECT_EQ(stats.images, 1u) << what;
    EXPECT_LE(cold.static_min_cycles, cold.cycles) << what;
    EXPECT_LE(cold.cycles, cold.static_max_cycles) << what;

    const KernelRunResult hit = call();
    stats = kernel_memo_stats();
    EXPECT_EQ(stats.misses, 1u) << what;
    EXPECT_EQ(stats.hits, 1u) << what;
    EXPECT_EQ(stats.images, 1u) << what;
    expect_same(cold, hit, what);
  }

  // All entry points in one memo: the key keeps every image apart (kind,
  // flavor, profile, core count), except that run_fixed_mlp on the 8-core
  // target and run_fixed_mlp_parallel(8) are the same image.
  clear_kernel_memo();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      expect_same(calls[i].second(), colds[i], "shared memo: " + calls[i].first);
    }
  }
  EXPECT_EQ(kernel_memo_stats().images, calls.size() - 1);
}

TEST(KernelMemo, SameShapeNetworksShareOneImageAndKeepTheirOwnOutputs) {
  const Fixture a(21);
  const Fixture b(22);
  ASSERT_NE(a.qn.layers()[0].weights, b.qn.layers()[0].weights);
  for (const Target target : kTargets) {
    clear_kernel_memo();
    const KernelRunResult ra = run_fixed_mlp(a.qn, a.input_fixed, target);
    const KernelRunResult rb = run_fixed_mlp(b.qn, b.input_fixed, target);
    const KernelMemoStats stats = kernel_memo_stats();
    EXPECT_EQ(stats.images, 1u) << target_name(target);
    EXPECT_EQ(stats.hits, 1u) << target_name(target);
    EXPECT_EQ(ra.outputs_fixed, a.qn.infer_fixed(a.input_fixed)) << target_name(target);
    EXPECT_EQ(rb.outputs_fixed, b.qn.infer_fixed(b.input_fixed)) << target_name(target);
    EXPECT_NE(ra.outputs_fixed, rb.outputs_fixed) << target_name(target);
  }
}

TEST(KernelMemo, DifferentLayerSizesCompileSeparately) {
  const Fixture a(31);
  const Fixture b(32, [](Rng& rng) { return nn::Network::create({5, 13, 7, 3}, rng); });
  clear_kernel_memo();
  const KernelRunResult ra = run_fixed_mlp(a.qn, a.input_fixed, Target::kIbex);
  const KernelRunResult rb = run_fixed_mlp(b.qn, b.input_fixed, Target::kIbex);
  EXPECT_EQ(kernel_memo_stats().images, 2u);
  EXPECT_EQ(rb.outputs_fixed, b.qn.infer_fixed(b.input_fixed));
  EXPECT_NE(ra.static_max_cycles, rb.static_max_cycles);
}

TEST(KernelMemo, SameNamedProfilesWithOneDifferentCostDoNotShareAnImage) {
  const Fixture f(41);
  const rv::TimingProfile base = rv::ri5cy();
  rv::TimingProfile slower_mul = rv::ri5cy();
  slower_mul.mul += 3;
  ASSERT_EQ(base.name, slower_mul.name);

  clear_kernel_memo();
  const KernelRunResult fast = run_fixed_mlp_custom(f.qn, f.input_fixed, Flavor::kGeneric, base);
  const KernelRunResult slow =
      run_fixed_mlp_custom(f.qn, f.input_fixed, Flavor::kGeneric, slower_mul);
  EXPECT_EQ(kernel_memo_stats().images, 2u);
  EXPECT_GT(slow.cycles, fast.cycles);
  EXPECT_GT(slow.static_max_cycles, fast.static_max_cycles);

  // The slow profile's result is the one a cold call under it computes.
  clear_kernel_memo();
  expect_same(run_fixed_mlp_custom(f.qn, f.input_fixed, Flavor::kGeneric, slower_mul), slow,
              "cold slower_mul");
}

TEST(KernelMemo, RejectedImageThrowsOnEveryCallAndIsNeverKept) {
  const Fixture f(51);
  clear_kernel_memo();
  // The RI5CY kernel uses hardware loops and post-increment loads IBEX lacks.
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW(run_fixed_mlp_custom(f.qn, f.input_fixed, Flavor::kRi5cy, rv::ibex()), Error)
        << "call " << call;
  }
  const KernelMemoStats stats = kernel_memo_stats();
  EXPECT_EQ(stats.images, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(KernelMemo, ConcurrentCallsMatchSerialRuns) {
  const Fixture nets[] = {Fixture(61, nn::make_network_a), Fixture(62)};
  std::vector<KernelRunResult> serial;
  for (const Fixture& f : nets) {
    for (const Target target : kTargets) {
      serial.push_back(run_fixed_mlp(f.qn, f.input_fixed, target));
    }
  }

  // Cold memo, so the threads race on the compiles as well as the hits.
  clear_kernel_memo();
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<KernelRunResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the 8 (net, target) pairs from its own offset.
        for (std::size_t k = 0; k < serial.size(); ++k) {
          const std::size_t i = (k + static_cast<std::size_t>(2 * t + round)) % serial.size();
          const Fixture& f = nets[i / 4];
          got[t].push_back(run_fixed_mlp(f.qn, f.input_fixed, kTargets[i % 4]));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * serial.size());
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t k = 0; k < serial.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(2 * t + round)) % serial.size();
        expect_same(got[t][round * serial.size() + k], serial[i],
                    "thread " + std::to_string(t) + " pair " + std::to_string(i));
      }
    }
  }
  const KernelMemoStats stats = kernel_memo_stats();
  EXPECT_EQ(stats.images, serial.size());
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * serial.size());
}

}  // namespace
}  // namespace iw::kernels
