#include "common/hostinfo.hpp"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace iw::hostinfo {

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  // VmHWM is the high-water mark of the resident set, in kB.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      unsigned long long kb = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<std::uint64_t>(kb) * 1024u;
      }
    }
    std::fclose(f);
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // ru_maxrss is kilobytes on Linux, bytes on macOS.
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
#endif
  }
#endif
  return 0;
}

std::string cpu_model() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "model name", 10) == 0) {
        const char* colon = std::strchr(line, ':');
        if (colon != nullptr) {
          const char* s = colon + 1;
          while (*s == ' ' || *s == '\t') ++s;
          std::string model(s);
          while (!model.empty() && (model.back() == '\n' || model.back() == '\r')) {
            model.pop_back();
          }
          std::fclose(f);
          return model;
        }
      }
    }
    std::fclose(f);
  }
#endif
  return "unknown";
}

std::string cpu_simd_features() {
  std::string features;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("sse2")) features += "sse2";
  if (__builtin_cpu_supports("avx2")) {
    if (!features.empty()) features += ' ';
    features += "avx2";
  }
  if (__builtin_cpu_supports("avx512f")) {
    if (!features.empty()) features += ' ';
    features += "avx512f";
  }
#endif
  return features.empty() ? "none" : features;
}

}  // namespace iw::hostinfo
