// SIMD execution tier for the cohort day kernel (DESIGN.md §15).
//
// The register-resident lane kernel in device.cpp advances N independent
// device-days whose per-lane arithmetic is a pure FP chain — exactly the
// shape explicit SIMD wants. These entry points run a *prefix* of a clock
// group's register-eligible lanes through vectorized blocks (harvest ticks
// fully vectorized; detection drains vectorized for packs of lanes on the
// same fixed-period stream, scalar per lane otherwise) and return how many
// lanes they consumed. The caller (run_cohort_group) hands the remaining
// lanes to the scalar register ladder and the general sweep unchanged.
//
// Bit-exactness is by construction: lanes only ever share *instructions*,
// never operands, and every vector statement is the same IEEE operation in
// the same order as the scalar kernel (see cohort_simd_impl.hpp for the
// statement-by-statement argument). Each tier's translation unit is
// compiled with -ffp-contract=off so no fused multiply-add can be introduced
// behind the wrapper's back.
//
// Two tiers instantiate that one kernel: AVX2 (4 lanes per pack) and
// AVX-512 (8 lanes per pack). The AVX-512 tier consumes 16- and 8-lane
// blocks and hands a tail of fewer than 8 lanes to the AVX2 4-lane block.
#pragma once

#include <cstddef>

namespace iw::platform::detail {

struct CohortGroupRefs;

/// Runs the kernel of simd::active_tier() (avx2, or avx512 followed by an
/// avx2 tail); returns the number of register-eligible lanes consumed (0
/// when the tier is off or the build excludes SIMD kernels).
std::size_t run_cohort_group_simd(const CohortGroupRefs& refs);

/// The per-tier entry points, each defined in its own translation unit so
/// its code can be compiled with -mavx2 / -mavx512f without contaminating
/// baseline TUs. A compiler without the flag gets a stub returning 0; the
/// dispatcher never selects it there.
std::size_t run_cohort_group_simd_avx2(const CohortGroupRefs& refs);
std::size_t run_cohort_group_simd_avx512(const CohortGroupRefs& refs);

}  // namespace iw::platform::detail
