// Strict numeric command-line flags for the tools and the fleet benches.
//
// strtoull/strtol alone accept trailing junk ("10x" reads as 10), leading
// whitespace, and a sign on unsigned values ("-1" wraps to 2^64 - 1). Every
// numeric flag goes through flag_value (or parse_number, for a value that may
// also be a name) instead, which takes the whole argument or nothing.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>

namespace iw::cli {

/// Parses all of `text` as a number in [lo, hi] into `out`. Integers are
/// read in `base` (0 takes C prefixes: 0x10 is hex, 010 octal), and unsigned
/// values take no sign. On anything else returns false and leaves `out` alone.
template <typename T>
bool parse_number(const char* text, std::type_identity_t<T> lo,
                  std::type_identity_t<T> hi, T& out, int base = 10) {
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
    const unsigned long long v = std::strtoull(text, &end, base);
    ok = ok && std::isdigit(first) != 0 && v >= lo && v <= hi;
    value = static_cast<T>(v);
  } else {
    const long long v = std::strtoll(text, &end, base);
    ok = ok && v >= lo && v <= hi;
    value = static_cast<T>(v);
  }
  ok = ok && errno == 0 && *end == '\0';
  if (ok) out = value;
  return ok;
}

/// Reads flag argv[i]'s value, argv[i + 1], into `out` and advances i; the
/// value must satisfy parse_number. Otherwise prints why, leaves `out` alone
/// and returns false.
template <typename T>
bool flag_value(char** argv, int& i, std::type_identity_t<T> lo,
                std::type_identity_t<T> hi, T& out, int base = 10) {
  const char* flag = argv[i];
  const char* text = argv[++i];
  if (parse_number(text, lo, hi, out, base)) return true;
  std::fprintf(stderr, "%s needs a number in [%s, %s], got '%s'\n", flag,
               std::to_string(lo).c_str(), std::to_string(hi).c_str(), text);
  return false;
}

}  // namespace iw::cli
