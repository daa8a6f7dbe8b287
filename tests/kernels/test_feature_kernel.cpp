#include "kernels/feature_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bio/ecg.hpp"
#include "bio/hrv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace iw::kernels {
namespace {

std::vector<std::int32_t> random_rr_ms(std::size_t n, iw::Rng& rng) {
  std::vector<std::int32_t> rr(n);
  for (auto& v : rr) v = static_cast<std::int32_t>(600 + rng.uniform_int(600));
  return rr;
}

TEST(FeatureKernel, BitExactWithHostReference) {
  iw::Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto rr = random_rr_ms(5 + rng.uniform_int(100), rng);
    const HrvKernelResult run = run_hrv_kernel(rr);
    const HrvFixedValues golden = hrv_fixed_reference(rr);
    EXPECT_EQ(run.values.rmssd_q4_ms, golden.rmssd_q4_ms) << "trial " << trial;
    EXPECT_EQ(run.values.sdsd_q4_ms, golden.sdsd_q4_ms) << "trial " << trial;
    EXPECT_EQ(run.values.nn50, golden.nn50) << "trial " << trial;
  }
}

TEST(FeatureKernel, Nn50MatchesFloatDefinition) {
  iw::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    // Multiples of 3 keep every difference away from the exact 50 ms
    // boundary, where the float conversion (x/1000.0) is ambiguous.
    std::vector<std::int32_t> rr(40);
    for (auto& v : rr) v = static_cast<std::int32_t>(600 + 3 * rng.uniform_int(200));
    std::vector<double> rr_s(rr.size());
    for (std::size_t i = 0; i < rr.size(); ++i) rr_s[i] = rr[i] / 1000.0;
    EXPECT_EQ(run_hrv_kernel(rr).values.nn50, bio::nn50(rr_s));
  }
}

TEST(FeatureKernel, RmssdTracksFloatDefinition) {
  iw::Rng rng(3);
  const auto rr = random_rr_ms(80, rng);
  std::vector<double> rr_s(rr.size());
  for (std::size_t i = 0; i < rr.size(); ++i) rr_s[i] = rr[i] / 1000.0;
  const double rmssd_ms = bio::rmssd(rr_s) * 1000.0;
  const double kernel_ms = run_hrv_kernel(rr).values.rmssd_q4_ms / 16.0;
  // Integer mean + floor sqrt cost at most ~1 ms here.
  EXPECT_NEAR(kernel_ms, rmssd_ms, 1.0);
}

TEST(FeatureKernel, SdsdTracksFloatDefinition) {
  iw::Rng rng(4);
  const auto rr = random_rr_ms(80, rng);
  std::vector<double> rr_s(rr.size());
  for (std::size_t i = 0; i < rr.size(); ++i) rr_s[i] = rr[i] / 1000.0;
  const double sdsd_ms = bio::sdsd(rr_s) * 1000.0;
  const double kernel_ms = run_hrv_kernel(rr).values.sdsd_q4_ms / 16.0;
  // The kernel uses the population variance (1/m); for m=79 the difference
  // from the sample variance plus integer truncation stays within ~2 ms.
  EXPECT_NEAR(kernel_ms, sdsd_ms, 2.0);
}

TEST(FeatureKernel, ConstantSeriesGivesZeros) {
  const std::vector<std::int32_t> rr(20, 800);
  const HrvKernelResult run = run_hrv_kernel(rr);
  EXPECT_EQ(run.values.rmssd_q4_ms, 0);
  EXPECT_EQ(run.values.sdsd_q4_ms, 0);
  EXPECT_EQ(run.values.nn50, 0);
}

TEST(FeatureKernel, KnownSmallSeries) {
  // diffs: +50, -50, +120 -> nn50 = 1 (strictly greater than 50).
  const std::vector<std::int32_t> rr{800, 850, 800, 920};
  const HrvKernelResult run = run_hrv_kernel(rr);
  EXPECT_EQ(run.values.nn50, 1);
  const double expected_rmssd =
      std::sqrt((50.0 * 50.0 + 50.0 * 50.0 + 120.0 * 120.0) / 3.0);
  EXPECT_NEAR(run.values.rmssd_q4_ms / 16.0, expected_rmssd, 1.0);
}

TEST(FeatureKernel, FitsThePaperTimeBudget) {
  // Paper: the full feature extraction takes 50 us on the cluster. The
  // HRV part over a 60 s window (~75 beats) must fit comfortably.
  iw::Rng rng(5);
  const auto rr = random_rr_ms(75, rng);
  const HrvKernelResult run = run_hrv_kernel(rr);
  EXPECT_LT(run.time_s(), 50e-6);
  EXPECT_GT(run.cycles, 100u);  // sanity: it did real work
}

TEST(FeatureKernel, Validation) {
  EXPECT_THROW(run_hrv_kernel(std::vector<std::int32_t>{800}), Error);
  EXPECT_THROW(hrv_fixed_reference(std::vector<std::int32_t>{800}), Error);
  EXPECT_THROW(run_hrv_kernel(std::vector<std::int32_t>{800, -5}), Error);
  EXPECT_THROW(run_hrv_kernel(std::vector<std::int32_t>(3000, 800)), Error);
}

TEST(FeatureKernel, CyclesScaleLinearlyWithBeats) {
  iw::Rng rng(6);
  const auto short_rr = random_rr_ms(20, rng);
  const auto long_rr = random_rr_ms(200, rng);
  const std::uint64_t short_cycles = run_hrv_kernel(short_rr).cycles;
  const std::uint64_t long_cycles = run_hrv_kernel(long_rr).cycles;
  const double per_beat = static_cast<double>(long_cycles - short_cycles) / 180.0;
  EXPECT_GT(per_beat, 5.0);
  EXPECT_LT(per_beat, 20.0);
}

TEST(FeatureKernel, RepeatCallsReturnIdenticalResultsAndBounds) {
  // The program is assembled once per process; the WCET loop bound still
  // follows each call's series length.
  iw::Rng rng(7);
  const auto rr = random_rr_ms(40, rng);
  const auto longer = random_rr_ms(80, rng);
  const HrvKernelResult first = run_hrv_kernel(rr);
  const HrvKernelResult other = run_hrv_kernel(longer);
  const HrvKernelResult second = run_hrv_kernel(rr);
  EXPECT_EQ(first.values.rmssd_q4_ms, second.values.rmssd_q4_ms);
  EXPECT_EQ(first.values.sdsd_q4_ms, second.values.sdsd_q4_ms);
  EXPECT_EQ(first.values.nn50, second.values.nn50);
  EXPECT_EQ(first.cycles, second.cycles);
  EXPECT_EQ(first.instructions, second.instructions);
  EXPECT_EQ(first.static_min_cycles, second.static_min_cycles);
  EXPECT_EQ(first.static_max_cycles, second.static_max_cycles);
  EXPECT_EQ(first.static_stack_bytes, second.static_stack_bytes);
  EXPECT_GT(other.static_max_cycles, first.static_max_cycles);
  EXPECT_LE(other.cycles, other.static_max_cycles);
}

}  // namespace
}  // namespace iw::kernels
