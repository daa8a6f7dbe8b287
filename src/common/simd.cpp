#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.hpp"

// Build facts (what kernels exist) are decided by CMake: IW_SIMD_ENABLED is
// defined tree-wide when the IW_SIMD option is ON, IW_SIMD_HAVE_AVX2 when the
// compiler accepted -mavx2 for the AVX2 kernel TU, and IW_SIMD_HAVE_AVX512
// when it accepted -mavx512f for the AVX-512 kernel TU.

namespace iw::simd {

namespace {

// -1 = no override; otherwise the forced tier.
std::atomic<int> g_override{-1};

/// The widest usable tier no wider than `cap`.
Tier widest_usable(Tier cap) {
  for (int t = static_cast<int>(cap); t > 0; --t) {
    if (tier_usable(static_cast<Tier>(t))) return static_cast<Tier>(t);
  }
  return Tier::kOff;
}

Tier detect_tier() {
  Tier cap = Tier::kAvx512;
  if (const char* env = std::getenv("IW_SIMD")) {
    if (std::strcmp(env, "off") == 0) {
      cap = Tier::kOff;
    } else if (std::strcmp(env, "avx2") == 0) {
      cap = Tier::kAvx2;
    } else if (std::strcmp(env, "avx512") != 0) {
      fail(std::string("IW_SIMD=") + env +
           " is not a SIMD tier; accepted: off, avx2, avx512");
    }
  }
  return widest_usable(cap);
}

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kOff:
      return "off";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "?";
}

bool tier_usable(Tier tier) {
  switch (tier) {
    case Tier::kOff:
      return true;
    case Tier::kAvx2:
#if defined(IW_SIMD_ENABLED) && defined(IW_SIMD_HAVE_AVX2) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Tier::kAvx512:
#if defined(IW_SIMD_ENABLED) && defined(IW_SIMD_HAVE_AVX512) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
      // The tier hands its sub-8-lane tail to the AVX2 block.
      return __builtin_cpu_supports("avx512f") != 0 && tier_usable(Tier::kAvx2);
#else
      return false;
#endif
  }
  return false;
}

Tier active_tier() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Tier>(forced);
  static const Tier detected = detect_tier();
  return detected;
}

void override_tier(Tier tier) {
  ensure(tier == Tier::kOff || tier_usable(tier),
         "simd::override_tier: tier not usable in this build/host");
  g_override.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void clear_override() { g_override.store(-1, std::memory_order_relaxed); }

}  // namespace iw::simd
