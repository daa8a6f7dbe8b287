#include "platform/cohort_simd.hpp"

#include "common/simd.hpp"
#include "platform/day_kernel.hpp"

namespace iw::platform::detail {

std::size_t run_cohort_group_simd(const CohortGroupRefs& refs) {
  // active_tier() runs in the portable build too, so a bad IW_SIMD value is
  // refused the same way there.
  if (simd::active_tier() != simd::Tier::kAvx2) return 0;
#if defined(IW_SIMD_ENABLED)
  return run_cohort_group_simd_avx2(refs);
#else
  (void)refs;
  return 0;
#endif
}

}  // namespace iw::platform::detail
