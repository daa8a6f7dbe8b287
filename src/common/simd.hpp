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
//   * select(m, a, b) is a bitwise merge under a compare mask (fully-set /
//     fully-clear lanes for f64x4, one bit per lane for f64x8) — it returns
//     exactly `a`'s bits where the mask is set and `b`'s where it is clear,
//     never a recomputed value.
//   * No fused multiply-add anywhere: the wrapper only offers separate mul
//     and add, and the kernel TUs are compiled with -ffp-contract=off so the
//     compiler cannot contract them behind our back (see DESIGN.md §15).
//
// Two pack types implement that operation set: f64x4, the AVX2 __m256d
// (only defined in TUs compiled with -mavx2), and f64x8, the AVX-512 __m512d
// with __mmask8 masks (only defined in TUs compiled with -mavx512f).
//
// Whether a tier can run is the build (the tier's kernel TU was compiled)
// and the host CPU together (tier_usable); what actually runs is
// active_tier(): the widest usable tier, clamped by the IW_SIMD environment
// variable (off | avx2 | avx512) and by override_tier(), the test hook that
// lets one process compare tiers.
#pragma once

#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace iw::simd {

/// Execution tiers, narrowest first. kOff runs the scalar kernels unchanged;
/// kAvx2 and kAvx512 run the wrapper kernels on the AVX2 and AVX-512 packs.
enum class Tier : int { kOff = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable tier name ("off", "avx2", "avx512").
const char* tier_name(Tier tier);

/// True when this build contains kernels for `tier` (CMake IW_SIMD plus
/// compiler/architecture support decide at build time) and the host CPU can
/// execute them. kOff is always usable.
bool tier_usable(Tier tier);

/// The tier the dispatched kernels run: the widest usable tier, clamped down
/// (never widened) by the IW_SIMD environment variable and by any
/// override_tier() in effect. Thread-safe; the environment is read once.
/// Throws iw::Error naming the accepted values when IW_SIMD is set to
/// anything but "off", "avx2" or "avx512".
Tier active_tier();

/// Test hook: forces active_tier() to `tier` (which must be kOff or usable)
/// until clear_override(). Not for concurrent use with running kernels.
void override_tier(Tier tier);
void clear_override();

// ---------------------------------------------------------------------------
// AVX2 pack. Only TUs compiled with -mavx2 (or -mavx512f, which implies it)
// see this definition; the runtime dispatcher guarantees the code never
// executes on a host without AVX2.
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

// ---------------------------------------------------------------------------
// AVX-512 pack: the same operation set, 8 lanes wide. Masks are __mmask8 bit
// masks (one bit per lane), so mask_bits/mask_from_bits are plain casts and
// select is a mask blend. Only TUs compiled with -mavx512f see it; the
// dispatcher runs it only after __builtin_cpu_supports("avx512f") passes.
// ---------------------------------------------------------------------------

#if defined(__AVX512F__)
struct f64x8 {
  static constexpr int kWidth = 8;
  __m512d v;

  struct Mask {
    __mmask8 m;
  };

  static f64x8 load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static void store(double* p, f64x8 a) { _mm512_storeu_pd(p, a.v); }
  static f64x8 broadcast(double x) { return {_mm512_set1_pd(x)}; }
  friend f64x8 operator+(f64x8 a, f64x8 b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend f64x8 operator-(f64x8 a, f64x8 b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend f64x8 operator*(f64x8 a, f64x8 b) { return {_mm512_mul_pd(a.v, b.v)}; }
  friend f64x8 operator/(f64x8 a, f64x8 b) { return {_mm512_div_pd(a.v, b.v)}; }
  // VMINPD(b, a), as in f64x4. Spelled as a full-mask masked min because
  // GCC 12's unmasked _mm512_min_pd passes an undefined source operand that
  // trips -Wmaybe-uninitialized inside avx512fintrin.h; the instruction and
  // its per-lane result are the same.
  static f64x8 stdmin(f64x8 a, f64x8 b) {
    return {_mm512_mask_min_pd(b.v, 0xFF, b.v, a.v)};
  }
  static Mask lt(f64x8 a, f64x8 b) {
    return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ)};
  }
  static Mask le(f64x8 a, f64x8 b) {
    return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_LE_OQ)};
  }
  static Mask gt(f64x8 a, f64x8 b) {
    return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ)};
  }
  static Mask ge(f64x8 a, f64x8 b) {
    return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ)};
  }
  static Mask ne(f64x8 a, f64x8 b) {
    return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_NEQ_UQ)};
  }
  static Mask mask_and(Mask a, Mask b) {
    return {static_cast<__mmask8>(a.m & b.m)};
  }
  static unsigned mask_bits(Mask a) { return a.m; }
  static Mask mask_from_bits(unsigned bits) {
    return {static_cast<__mmask8>(bits)};
  }
  static f64x8 select(Mask m, f64x8 a, f64x8 b) {
    return {_mm512_mask_blend_pd(m.m, b.v, a.v)};
  }
  static Mask mask_andnot(Mask a, Mask b) {
    return {static_cast<__mmask8>(a.m & ~b.m)};
  }

  // Unsigned-64 companion pack, as in f64x4; the masked increment is a
  // merge-masked add.
  struct U {
    __m512i v;
  };

  static U uload(const std::uint64_t* p) { return {_mm512_loadu_si512(p)}; }
  static void ustore(std::uint64_t* p, U a) { _mm512_storeu_si512(p, a.v); }
  static U uincr(U a) { return {_mm512_add_epi64(a.v, _mm512_set1_epi64(1))}; }
  static U uincr(U a, Mask m) {
    return {_mm512_mask_add_epi64(a.v, m.m, a.v, _mm512_set1_epi64(1))};
  }
  static U uselect(Mask m, U a, U b) {
    return {_mm512_mask_blend_epi64(m.m, b.v, a.v)};
  }
};
#endif  // __AVX512F__

}  // namespace iw::simd
