#include "platform/cohort_simd.hpp"

#include "common/simd.hpp"
#include "platform/day_kernel.hpp"

namespace iw::platform::detail {

std::size_t run_cohort_group_simd(const CohortGroupRefs& refs) {
  // active_tier() runs in the portable build too, so a bad IW_SIMD value is
  // refused the same way there.
  const simd::Tier tier = simd::active_tier();
  if (tier == simd::Tier::kOff) return 0;
#if defined(IW_SIMD_ENABLED)
  if (tier == simd::Tier::kAvx2) return run_cohort_group_simd_avx2(refs);
  // AVX-512 takes the 16- and 8-lane blocks; the tail of fewer than 8 lanes
  // goes to the AVX2 4-lane block, and what is left to the scalar ladder.
  const std::size_t j = run_cohort_group_simd_avx512(refs);
  CohortGroupRefs tail = refs;
  tail.lane_ids += j;
  tail.num_lanes -= j;
  tail.num_reg_lanes -= j;
  return j + run_cohort_group_simd_avx2(tail);
#else
  (void)refs;
  return 0;
#endif
}

}  // namespace iw::platform::detail
