// Strict numeric command-line flags for the tools.
//
// strtoull/strtol alone accept trailing junk ("10x" reads as 10), leading
// whitespace, and a sign on unsigned values ("-1" wraps to 2^64 - 1). Every
// numeric flag goes through flag_value instead, which takes the whole
// argument or nothing.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>

namespace iw::cli {

/// Reads flag argv[i]'s value, argv[i + 1], into `out` and advances i. The
/// whole argument must be a number in [lo, hi], and unsigned flags take no
/// sign. Otherwise prints why, leaves `out` alone and returns false.
template <typename T>
bool flag_value(char** argv, int& i, std::type_identity_t<T> lo,
                std::type_identity_t<T> hi, T& out) {
  const char* flag = argv[i];
  const char* text = argv[++i];
  const unsigned char first = static_cast<unsigned char>(text[0]);
  char* end = nullptr;
  errno = 0;
  bool ok = first != '\0' && std::isspace(first) == 0;
  T value{};
  if constexpr (std::is_floating_point_v<T>) {
    const double v = std::strtod(text, &end);
    ok = ok && std::isfinite(v) && v >= lo && v <= hi;
    value = static_cast<T>(v);
  } else if constexpr (std::is_unsigned_v<T>) {
    const unsigned long long v = std::strtoull(text, &end, 10);
    ok = ok && std::isdigit(first) != 0 && v >= lo && v <= hi;
    value = static_cast<T>(v);
  } else {
    const long long v = std::strtoll(text, &end, 10);
    ok = ok && v >= lo && v <= hi;
    value = static_cast<T>(v);
  }
  ok = ok && errno == 0 && *end == '\0';
  if (!ok) {
    std::fprintf(stderr, "%s needs a number in [%s, %s], got '%s'\n", flag,
                 std::to_string(lo).c_str(), std::to_string(hi).c_str(), text);
    return false;
  }
  out = value;
  return true;
}

}  // namespace iw::cli
