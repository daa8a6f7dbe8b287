// AVX-512 tier of the SIMD cohort kernel (width 8). This TU — and only this
// TU — is compiled with -mavx512f (plus -ffp-contract=off like every tier
// TU); the dispatcher selects it only after __builtin_cpu_supports("avx512f")
// passes.
#include "platform/cohort_simd.hpp"
#include "platform/cohort_simd_impl.hpp"

namespace iw::platform::detail {

#if defined(__AVX512F__)
std::size_t run_cohort_group_simd_avx512(const CohortGroupRefs& refs) {
  return run_cohort_simd_ladder<simd::f64x8>(refs);
}
#else
// Compiler lacked -mavx512f support: the dispatcher never selects this tier
// (tier_usable is false), but the symbol must exist.
std::size_t run_cohort_group_simd_avx512(const CohortGroupRefs&) { return 0; }
#endif

}  // namespace iw::platform::detail
