#include "rvsim/encoding.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace iw::rv {
namespace {

// Golden encodings cross-checked against the RISC-V ISA manual / GNU as.
TEST(Encoding, GoldenRv32iWords) {
  Decoded d;
  d.op = Op::kAddi; d.rd = 1; d.rs1 = 0; d.imm = 5;
  EXPECT_EQ(encode(d), 0x00500093u);

  d = Decoded{}; d.op = Op::kAdd; d.rd = 3; d.rs1 = 1; d.rs2 = 2;
  EXPECT_EQ(encode(d), 0x002081B3u);

  d = Decoded{}; d.op = Op::kLw; d.rd = 5; d.rs1 = 2; d.imm = 8;
  EXPECT_EQ(encode(d), 0x00812283u);

  d = Decoded{}; d.op = Op::kSw; d.rs2 = 5; d.rs1 = 2; d.imm = 12;
  EXPECT_EQ(encode(d), 0x00512623u);

  d = Decoded{}; d.op = Op::kBeq; d.rs1 = 1; d.rs2 = 2; d.imm = 8;
  EXPECT_EQ(encode(d), 0x00208463u);

  d = Decoded{}; d.op = Op::kJal; d.rd = 1; d.imm = 16;
  EXPECT_EQ(encode(d), 0x010000EFu);

  d = Decoded{}; d.op = Op::kLui; d.rd = 7; d.imm = 0x12345;
  EXPECT_EQ(encode(d), 0x123453B7u);

  d = Decoded{}; d.op = Op::kMul; d.rd = 5; d.rs1 = 6; d.rs2 = 7;
  EXPECT_EQ(encode(d), 0x027302B3u);

  d = Decoded{}; d.op = Op::kEcall;
  EXPECT_EQ(encode(d), 0x00000073u);
}

TEST(Encoding, NegativeImmediates) {
  Decoded d;
  d.op = Op::kAddi; d.rd = 1; d.rs1 = 1; d.imm = -1;
  EXPECT_EQ(encode(d), 0xFFF08093u);
  const Decoded back = decode(0xFFF08093u);
  EXPECT_EQ(back.imm, -1);

  d = Decoded{}; d.op = Op::kBne; d.rs1 = 3; d.rs2 = 4; d.imm = -8;
  EXPECT_EQ(decode(encode(d)).imm, -8);
}

TEST(Encoding, RejectsOutOfRangeImmediates) {
  Decoded d;
  d.op = Op::kAddi; d.imm = 5000;
  EXPECT_THROW(encode(d), Error);
  d.op = Op::kLw; d.imm = -3000;
  EXPECT_THROW(encode(d), Error);
  d = Decoded{}; d.op = Op::kBeq; d.imm = 3;  // odd offset
  EXPECT_THROW(encode(d), Error);
  d = Decoded{}; d.op = Op::kSlli; d.imm = 32;
  EXPECT_THROW(encode(d), Error);
}

TEST(Encoding, DecodeRejectsIllegalWords) {
  EXPECT_THROW(decode(0x00000000u), Error);
  EXPECT_THROW(decode(0xFFFFFFFFu), Error);
}

// gtest prints a case's raw bytes into its test name, so the struct has no
// implicit padding (whose bytes are indeterminate): `reserved` fills the gap
// and round_trip() zeroes it.
struct RoundTripCase {
  Op op;
  bool has_rd, has_rs1, has_rs2, has_rs3;
  std::uint8_t reserved[3];
  std::int32_t imm_lo, imm_hi, imm_step;
};
static_assert(sizeof(RoundTripCase) == 20);

RoundTripCase round_trip(Op op, bool has_rd, bool has_rs1, bool has_rs2,
                         bool has_rs3, std::int32_t imm_lo,
                         std::int32_t imm_hi, std::int32_t imm_step) {
  RoundTripCase c{};
  c.op = op;
  c.has_rd = has_rd;
  c.has_rs1 = has_rs1;
  c.has_rs2 = has_rs2;
  c.has_rs3 = has_rs3;
  c.imm_lo = imm_lo;
  c.imm_hi = imm_hi;
  c.imm_step = imm_step;
  return c;
}

class EncodingRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(EncodingRoundTrip, EncodeDecodeIdentity) {
  const RoundTripCase c = GetParam();
  iw::Rng rng(static_cast<std::uint64_t>(c.op) * 7919 + 17);
  for (int trial = 0; trial < 200; ++trial) {
    Decoded d;
    d.op = c.op;
    if (c.has_rd) d.rd = static_cast<std::uint8_t>(rng.uniform_int(32));
    if (c.has_rs1) d.rs1 = static_cast<std::uint8_t>(rng.uniform_int(32));
    if (c.has_rs2) d.rs2 = static_cast<std::uint8_t>(rng.uniform_int(32));
    if (c.has_rs3) d.rs3 = static_cast<std::uint8_t>(rng.uniform_int(32));
    if (c.imm_step != 0) {
      const std::int64_t span = (c.imm_hi - c.imm_lo) / c.imm_step;
      d.imm = c.imm_lo +
              c.imm_step * static_cast<std::int32_t>(rng.uniform_int(
                               static_cast<std::uint64_t>(span + 1)));
    }
    const Decoded back = decode(encode(d));
    EXPECT_EQ(back.op, d.op);
    if (c.has_rd) {
      EXPECT_EQ(back.rd, d.rd);
    }
    if (c.has_rs1) {
      EXPECT_EQ(back.rs1, d.rs1);
    }
    if (c.has_rs2) {
      EXPECT_EQ(back.rs2, d.rs2);
    }
    if (c.has_rs3) {
      EXPECT_EQ(back.rs3, d.rs3);
    }
    if (c.imm_step != 0) {
      EXPECT_EQ(back.imm, d.imm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, EncodingRoundTrip,
    ::testing::Values(
        round_trip(Op::kAddi, true, true, false, false, -2048, 2047, 1),
        round_trip(Op::kXori, true, true, false, false, -2048, 2047, 1),
        round_trip(Op::kSlli, true, true, false, false, 0, 31, 1),
        round_trip(Op::kSrai, true, true, false, false, 0, 31, 1),
        round_trip(Op::kAdd, true, true, true, false, 0, 0, 0),
        round_trip(Op::kSub, true, true, true, false, 0, 0, 0),
        round_trip(Op::kSra, true, true, true, false, 0, 0, 0),
        round_trip(Op::kMulh, true, true, true, false, 0, 0, 0),
        round_trip(Op::kRemu, true, true, true, false, 0, 0, 0),
        round_trip(Op::kLw, true, true, false, false, -2048, 2047, 1),
        round_trip(Op::kLbu, true, true, false, false, -2048, 2047, 1),
        round_trip(Op::kSw, false, true, true, false, -2048, 2047, 1),
        round_trip(Op::kSh, false, true, true, false, -2048, 2047, 1),
        round_trip(Op::kBeq, false, true, true, false, -4096, 4094, 2),
        round_trip(Op::kBgeu, false, true, true, false, -4096, 4094, 2),
        round_trip(Op::kJal, true, false, false, false, -4096, 4094, 2),
        round_trip(Op::kJalr, true, true, false, false, -2048, 2047, 1),
        round_trip(Op::kLui, true, false, false, false, 0, 0xFFFFF, 1),
        round_trip(Op::kAuipc, true, false, false, false, 0, 0xFFFFF, 1),
        round_trip(Op::kPLwPost, true, true, false, false, -2048, 2047, 1),
        round_trip(Op::kPShPost, false, true, true, false, -2048, 2047, 1),
        round_trip(Op::kPMac, true, true, true, false, 0, 0, 0),
        round_trip(Op::kPClip, true, true, false, false, 1, 31, 1),
        round_trip(Op::kPAbs, true, true, false, false, 0, 0, 0),
        round_trip(Op::kPMin, true, true, true, false, 0, 0, 0),
        round_trip(Op::kPMax, true, true, true, false, 0, 0, 0),
        round_trip(Op::kPExths, true, true, false, false, 0, 0, 0),
        round_trip(Op::kPExtbs, true, true, false, false, 0, 0, 0),
        round_trip(Op::kPvDotspH, true, true, true, false, 0, 0, 0),
        round_trip(Op::kPvSdotspH, true, true, true, false, 0, 0, 0),
        round_trip(Op::kFlw, true, true, false, false, -2048, 2047, 1),
        round_trip(Op::kFsw, false, true, true, false, -2048, 2047, 1),
        round_trip(Op::kFaddS, true, true, true, false, 0, 0, 0),
        round_trip(Op::kFmaddS, true, true, true, true, 0, 0, 0),
        round_trip(Op::kFltS, true, true, true, false, 0, 0, 0),
        round_trip(Op::kFcvtSW, true, true, false, false, 0, 0, 0),
        round_trip(Op::kFmvXW, true, true, false, false, 0, 0, 0)));

TEST(Encoding, HwLoopRoundTrip) {
  Decoded d;
  d.op = Op::kLpSetupi;
  d.imm = 100;   // iterations
  d.imm2 = 12;   // end offset in words
  d.extra = 1;   // loop index
  Decoded back = decode(encode(d));
  EXPECT_EQ(back.op, Op::kLpSetupi);
  EXPECT_EQ(back.imm, 100);
  EXPECT_EQ(back.imm2, 12);
  EXPECT_EQ(back.extra, 1u);

  d = Decoded{};
  d.op = Op::kLpSetup;
  d.rs1 = 14;
  d.imm2 = 200;
  d.extra = 0;
  back = decode(encode(d));
  EXPECT_EQ(back.op, Op::kLpSetup);
  EXPECT_EQ(back.rs1, 14);
  EXPECT_EQ(back.imm2, 200);
  EXPECT_EQ(back.extra, 0u);
}

TEST(Encoding, CsrRoundTrip) {
  Decoded d;
  d.op = Op::kCsrrs;
  d.rd = 10;
  d.rs1 = 0;
  d.extra = kCsrMhartid;
  const Decoded back = decode(encode(d));
  EXPECT_EQ(back.op, Op::kCsrrs);
  EXPECT_EQ(back.extra, kCsrMhartid);
  EXPECT_EQ(back.rd, 10);
}

}  // namespace
}  // namespace iw::rv
