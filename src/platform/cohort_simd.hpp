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
// statement-by-statement argument). The AVX2 translation unit is compiled
// with -ffp-contract=off so no fused multiply-add can be introduced behind
// the wrapper's back.
#pragma once

#include <cstddef>

namespace iw::platform::detail {

struct CohortGroupRefs;

/// Runs the AVX2 kernel when simd::active_tier() is avx2; returns the number
/// of register-eligible lanes consumed (0 when the tier is off or the build
/// excludes SIMD kernels).
std::size_t run_cohort_group_simd(const CohortGroupRefs& refs);

/// The AVX2 entry point, defined in its own translation unit so the AVX2
/// code can be compiled with -mavx2 without contaminating baseline TUs. A
/// compiler without -mavx2 gets a stub returning 0; the dispatcher never
/// selects it there.
std::size_t run_cohort_group_simd_avx2(const CohortGroupRefs& refs);

}  // namespace iw::platform::detail
