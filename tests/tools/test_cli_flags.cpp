// The tools' numeric flag parser (tools/cli_flags.hpp): a value is taken
// whole and in range, or refused without touching the destination. The ways
// strtoull/strtol/stoul alone go wrong ("-1" wrapping to 2^64 - 1, "10x"
// reading as 10) are all refusals, in base 10 and in base 0 (C literals).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "cli_flags.hpp"

namespace iw::cli {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// flag_value on the command line "--flag <text>"; it must consume the value.
template <typename T>
bool parse(std::string text, std::type_identity_t<T> lo, std::type_identity_t<T> hi,
           T& out) {
  std::string flag = "--flag";
  char* argv[] = {flag.data(), text.data()};
  int i = 0;
  const bool ok = flag_value(argv, i, lo, hi, out);
  EXPECT_EQ(i, 1);
  return ok;
}

TEST(CliFlags, RejectsSignOnUnsigned) {
  std::uint64_t shard = 7;
  for (const char* text : {"-1", "+5", "-0"}) {
    EXPECT_FALSE(parse(text, 0, kU64Max, shard)) << text;
  }
  EXPECT_EQ(shard, 7u);
}

TEST(CliFlags, RejectsPartialAndEmptyValues) {
  std::uint64_t devices = 7;
  for (const char* text : {"10x", "10 ", " 10", "", "0x10", "1e3", "ten"}) {
    EXPECT_FALSE(parse(text, 1, kU64Max, devices)) << "'" << text << "'";
  }
  EXPECT_EQ(devices, 7u);
  double minutes = 2.0;
  for (const char* text : {"2.5m", "nan", "inf", ""}) {
    EXPECT_FALSE(parse(text, 0.1, 1440.0, minutes)) << "'" << text << "'";
  }
  EXPECT_EQ(minutes, 2.0);
}

TEST(CliFlags, RangeChecksEveryType) {
  int threads = 3;
  for (const char* text : {"0", "-2", "4097", "99999999999"}) {
    EXPECT_FALSE(parse(text, 1, 4096, threads)) << text;
  }
  EXPECT_EQ(threads, 3);
  std::uint64_t shard = 9;
  EXPECT_FALSE(parse("0", 1, kU64Max, shard));
  EXPECT_FALSE(parse("18446744073709551616", 1, kU64Max, shard));  // 2^64
  EXPECT_EQ(shard, 9u);
  double minutes = 2.0;
  EXPECT_FALSE(parse("0.05", 0.1, 1440.0, minutes));
  EXPECT_FALSE(parse("1e400", 0.1, 1440.0, minutes));
  EXPECT_EQ(minutes, 2.0);
}

TEST(CliFlags, AcceptsWholeValuesInRange) {
  int threads = 0;
  EXPECT_TRUE(parse("4", 1, 4096, threads));
  EXPECT_EQ(threads, 4);
  std::uint64_t shard = 0;
  EXPECT_TRUE(parse("18446744073709551615", 1, kU64Max, shard));
  EXPECT_EQ(shard, kU64Max);
  double minutes = 0.0;
  EXPECT_TRUE(parse("2.5", 0.1, 1440.0, minutes));
  EXPECT_EQ(minutes, 2.5);
  EXPECT_TRUE(parse("1e2", 0.1, 1440.0, minutes));
  EXPECT_EQ(minutes, 100.0);
}

TEST(CliFlags, BaseZeroTakesCLiteralsWhole) {
  // iw_lint's --mem and --entry addresses: hex and octal like C literals,
  // still the whole argument, in range and unsigned.
  std::uint32_t entry = 7;
  EXPECT_TRUE(parse_number("0x10", 0, UINT32_MAX, entry, 0));
  EXPECT_EQ(entry, 16u);
  EXPECT_TRUE(parse_number("010", 0, UINT32_MAX, entry, 0));
  EXPECT_EQ(entry, 8u);
  EXPECT_TRUE(parse_number("4096", 0, UINT32_MAX, entry, 0));
  EXPECT_EQ(entry, 4096u);
  for (const char* text : {"-5", "4x", "0x", "zz", "", " 4", "0x100000000"}) {
    EXPECT_FALSE(parse_number(text, 0, UINT32_MAX, entry, 0)) << "'" << text << "'";
  }
  EXPECT_EQ(entry, 4096u);

  std::size_t mem = 5;
  const std::size_t kMaxMem = std::size_t{1} << 32;
  for (const char* text : {"-1", "zz", "4096x", "0", "0x100000001"}) {
    std::string flag = "--mem";
    std::string value = text;
    char* argv[] = {flag.data(), value.data()};
    int i = 0;
    EXPECT_FALSE(flag_value(argv, i, 1, kMaxMem, mem, 0)) << text;
  }
  EXPECT_EQ(mem, 5u);
}

}  // namespace
}  // namespace iw::cli
