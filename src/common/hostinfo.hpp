// Host observability helpers shared by the benchmarks and CLI tools:
// peak-RSS probing for memory reporting and CPU identification for
// committed benchmark metadata (perf numbers are only comparable across
// containers when the JSON records what silicon produced them).
#pragma once

#include <cstdint>
#include <string>

namespace iw::hostinfo {

/// Peak resident set size of this process in bytes. Linux: VmHWM from
/// /proc/self/status (falls back to getrusage); other POSIX: getrusage.
/// Returns 0 when no probe is available.
std::uint64_t peak_rss_bytes();

/// CPU model string ("model name" from /proc/cpuinfo on Linux), or "unknown".
std::string cpu_model();

/// Space-separated ISA feature summary relevant to the SIMD tiers, probed at
/// runtime (e.g. "sse2 avx2 avx512f"); "none" when none is available.
std::string cpu_simd_features();

}  // namespace iw::hostinfo
