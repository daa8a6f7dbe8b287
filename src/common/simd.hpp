// Portable explicit-SIMD wrapper and runtime tier dispatch.
//
// The simulation's bit-exactness contract allows vectorizing *across
// independent lanes only*: every lane must execute the same IEEE operations
// in the same order as the scalar kernel, so the wrapper exposes exactly the
// operations whose vector forms are correctly rounded per lane (add, sub,
// mul, div) plus compare/select primitives whose lane semantics are defined
// to match the scalar expressions they replace:
//
//   * stdmin(a, b) reproduces std::min(a, b) bit-for-bit including ties
//     (std::min returns `a` when neither operand is smaller; x86 MINPD
//     returns its *second* operand on ties, so stdmin(a, b) = MINPD(b, a)).
//   * select(m, a, b) is a bitwise merge of fully-set/fully-clear compare
//     masks — it returns exactly `a`'s bits where the mask is set and `b`'s
//     where it is clear, never a recomputed value.
//   * No fused multiply-add anywhere: the wrapper only offers separate mul
//     and add, and the kernel TUs are compiled with -ffp-contract=off so the
//     compiler cannot contract them behind our back (see DESIGN.md §15).
//
// One pack type implements that operation set: f64x4, the AVX2 __m256d
// (only defined in TUs compiled with -mavx2).
//
// Whether a tier can run is the build (the AVX2 kernel TU was compiled) and
// the host CPU together (tier_usable); what actually runs is active_tier(): avx2 when usable, clamped by the
// IW_SIMD environment variable (off | avx2) and by override_tier(), the test
// hook that lets one process compare tiers.
#pragma once

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace iw::simd {

/// Execution tiers. kOff runs the scalar kernels unchanged; kAvx2 runs the
/// wrapper kernels on the AVX2 pack.
enum class Tier : int { kOff = 0, kAvx2 = 1 };

/// Human-readable tier name ("off", "avx2").
const char* tier_name(Tier tier);

/// True when this build contains kernels for `tier` (CMake IW_SIMD plus
/// compiler/architecture support decide at build time) and the host CPU can
/// execute them. kOff is always usable.
bool tier_usable(Tier tier);

/// The tier the dispatched kernels run: avx2 when usable, else off, clamped
/// by the IW_SIMD environment variable and any override_tier() in effect.
/// Thread-safe; the environment is read once. Throws iw::Error naming the
/// accepted values when IW_SIMD is set to anything but "off" or "avx2".
Tier active_tier();

/// Test hook: forces active_tier() to `tier` (which must be kOff or usable)
/// until clear_override(). Not for concurrent use with running kernels.
void override_tier(Tier tier);
void clear_override();

// ---------------------------------------------------------------------------
// AVX2 pack. Only TUs compiled with -mavx2 see this definition; the runtime
// dispatcher guarantees the code never executes on a host without AVX2.
// ---------------------------------------------------------------------------

#if defined(__AVX2__)
struct f64x4 {
  static constexpr int kWidth = 4;
  __m256d v;

  struct Mask {
    __m256d m;
  };

  static f64x4 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static void store(double* p, f64x4 a) { _mm256_storeu_pd(p, a.v); }
  static f64x4 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  friend f64x4 operator+(f64x4 a, f64x4 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend f64x4 operator-(f64x4 a, f64x4 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend f64x4 operator*(f64x4 a, f64x4 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend f64x4 operator/(f64x4 a, f64x4 b) { return {_mm256_div_pd(a.v, b.v)}; }
  static f64x4 stdmin(f64x4 a, f64x4 b) { return {_mm256_min_pd(b.v, a.v)}; }
  static Mask lt(f64x4 a, f64x4 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
  static Mask le(f64x4 a, f64x4 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }
  static Mask gt(f64x4 a, f64x4 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  static Mask ge(f64x4 a, f64x4 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
  }
  static Mask ne(f64x4 a, f64x4 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_NEQ_UQ)};
  }
  static Mask mask_and(Mask a, Mask b) { return {_mm256_and_pd(a.m, b.m)}; }
  static unsigned mask_bits(Mask a) {
    return static_cast<unsigned>(_mm256_movemask_pd(a.m));
  }
  static Mask mask_from_bits(unsigned bits) {
    const __m256i ones =
        _mm256_set_epi64x((bits & 8u) ? -1 : 0, (bits & 4u) ? -1 : 0,
                          (bits & 2u) ? -1 : 0, (bits & 1u) ? -1 : 0);
    return {_mm256_castsi256_pd(ones)};
  }
  static f64x4 select(Mask m, f64x4 a, f64x4 b) {
    return {_mm256_blendv_pd(b.v, a.v, m.m)};
  }
  static Mask mask_andnot(Mask a, Mask b) {
    return {_mm256_andnot_pd(b.m, a.m)};
  }

  // Unsigned-64 companion pack for the kernels' stream counters (sequence
  // numbers, attempt/completion tallies). Integer adds are exact, so these
  // are bit-exact with the scalar per-lane updates by construction. A set
  // compare-mask lane is the two's-complement -1, so "add 1 where the mask
  // is set" is a single psubq against the mask.
  struct U {
    __m256i v;
  };

  static U uload(const std::uint64_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void ustore(std::uint64_t* p, U a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
  }
  static U uincr(U a) {
    return {_mm256_sub_epi64(a.v, _mm256_set1_epi64x(-1))};
  }
  static U uincr(U a, Mask m) {
    return {_mm256_sub_epi64(a.v, _mm256_castpd_si256(m.m))};
  }
  static U uselect(Mask m, U a, U b) {
    const __m256i mi = _mm256_castpd_si256(m.m);
    return {
        _mm256_or_si256(_mm256_and_si256(mi, a.v), _mm256_andnot_si256(mi, b.v))};
  }
};
#endif  // __AVX2__

}  // namespace iw::simd
