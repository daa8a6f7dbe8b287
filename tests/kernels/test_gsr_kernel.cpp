#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bio/gsr.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/feature_kernel.hpp"

namespace iw::kernels {
namespace {

std::vector<std::int32_t> to_q8(const std::vector<float>& samples) {
  std::vector<std::int32_t> out;
  out.reserve(samples.size());
  for (float v : samples) {
    out.push_back(static_cast<std::int32_t>(std::lround(v * 256.0f)));
  }
  return out;
}

TEST(GsrKernel, BitExactWithHostReference) {
  iw::Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    const bio::GsrSignal signal = bio::synthesize_gsr(
        bio::gsr_params_for(bio::StressLevel::kMedium), 30.0, rng);
    const auto q8 = to_q8(signal.samples);
    const GsrKernelResult run = run_gsr_kernel(q8);
    const GsrFixedValues golden = gsr_fixed_reference(q8, 13, 1);
    EXPECT_EQ(run.values.slope_count, golden.slope_count) << trial;
    EXPECT_EQ(run.values.total_height_q8, golden.total_height_q8) << trial;
    EXPECT_EQ(run.values.total_length_samples, golden.total_length_samples) << trial;
  }
}

TEST(GsrKernel, DetectsSyntheticRamp) {
  // Flat 2.0 uS, one clean rise of 0.5 uS over 2 s at 32 Hz, flat after.
  std::vector<std::int32_t> q8;
  for (int i = 0; i < 320; ++i) {
    double v = 2.0;
    const double t = i / 32.0;
    if (t >= 4.0 && t < 6.0) v = 2.0 + 0.25 * (t - 4.0);
    if (t >= 6.0) v = 2.5;
    q8.push_back(static_cast<std::int32_t>(std::lround(v * 256.0)));
  }
  const GsrKernelResult run = run_gsr_kernel(q8);
  ASSERT_EQ(run.values.slope_count, 1);
  EXPECT_NEAR(run.values.total_height_q8 / 256.0, 0.5, 0.08);
  EXPECT_NEAR(run.values.total_length_samples / 32.0, 2.0, 0.5);
}

TEST(GsrKernel, FlatSignalYieldsNothing) {
  const std::vector<std::int32_t> q8(200, 512);  // constant 2.0 uS
  const GsrKernelResult run = run_gsr_kernel(q8);
  EXPECT_EQ(run.values.slope_count, 0);
  EXPECT_EQ(run.values.total_height_q8, 0);
}

TEST(GsrKernel, StressRaisesSlopeActivity) {
  const auto activity = [](bio::StressLevel level) {
    iw::Rng rng(7);
    const bio::GsrSignal signal =
        bio::synthesize_gsr(bio::gsr_params_for(level), 120.0, rng);
    return run_gsr_kernel(to_q8(signal.samples)).values.slope_count;
  };
  EXPECT_GT(activity(bio::StressLevel::kHigh), activity(bio::StressLevel::kNone));
}

TEST(GsrKernel, RiseOpenAtStreamEndIsClosed) {
  // Monotone rise to the very end must still be counted.
  std::vector<std::int32_t> q8;
  for (int i = 0; i < 100; ++i) q8.push_back(512 + 4 * i);
  const GsrKernelResult run = run_gsr_kernel(q8);
  EXPECT_EQ(run.values.slope_count, 1);
  EXPECT_GT(run.values.total_height_q8, 300);
}

TEST(GsrKernel, ProcessingCostPerSample) {
  iw::Rng rng(9);
  const bio::GsrSignal signal = bio::synthesize_gsr(
      bio::gsr_params_for(bio::StressLevel::kMedium), 60.0, rng);
  const auto q8 = to_q8(signal.samples);
  const GsrKernelResult run = run_gsr_kernel(q8);
  const double per_sample =
      static_cast<double>(run.cycles) / static_cast<double>(q8.size());
  // Tight integer scan: around a dozen cycles per sample. Running it
  // incrementally during the 3 s acquisition makes its latency invisible.
  EXPECT_LT(per_sample, 20.0);
  EXPECT_GT(per_sample, 5.0);
}

TEST(GsrKernel, Validation) {
  const std::vector<std::int32_t> tiny(3, 512);
  EXPECT_THROW(run_gsr_kernel(tiny), Error);
  EXPECT_THROW(gsr_fixed_reference(tiny, 13, 1), Error);
  const std::vector<std::int32_t> negative(100, -1);
  EXPECT_THROW(run_gsr_kernel(negative), Error);
}

TEST(GsrKernel, RepeatCallsReturnIdenticalResultsAndBounds) {
  // The program is assembled once per process; the WCET loop bound still
  // follows each call's series length.
  iw::Rng rng(10);
  const auto q8 = to_q8(bio::synthesize_gsr(
      bio::gsr_params_for(bio::StressLevel::kHigh), 20.0, rng).samples);
  const auto longer = to_q8(bio::synthesize_gsr(
      bio::gsr_params_for(bio::StressLevel::kHigh), 40.0, rng).samples);
  const GsrKernelResult first = run_gsr_kernel(q8);
  const GsrKernelResult other = run_gsr_kernel(longer);
  const GsrKernelResult second = run_gsr_kernel(q8);
  EXPECT_EQ(first.values.slope_count, second.values.slope_count);
  EXPECT_EQ(first.values.total_height_q8, second.values.total_height_q8);
  EXPECT_EQ(first.values.total_length_samples, second.values.total_length_samples);
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
