// FPU instruction semantics vs host IEEE-754 single-precision arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <ostream>

#include "asmx/assembler.hpp"
#include "common/rng.hpp"
#include "rvsim/machine.hpp"

namespace iw::rv {
namespace {

std::uint32_t bits_of(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, 4);
  return b;
}

/// Runs `op f2, f0, f1` and returns the result's bit pattern.
std::uint32_t run_fp_binary(const std::string& mnemonic, float a, float b) {
  const asmx::Program program = asmx::assemble(
      "flw f0, 0x400(zero)\n"
      "flw f1, 0x404(zero)\n" +
      mnemonic + " f2, f0, f1\n"
      "fsw f2, 0x408(zero)\n"
      "ecall\n");
  Machine machine(cortex_m4f(), 1 << 16);
  machine.load_program(program.words);
  machine.memory().store32(0x400, bits_of(a));
  machine.memory().store32(0x404, bits_of(b));
  machine.run(0);
  return machine.memory().load32(0x408);
}

struct FpCase {
  const char* mnemonic;
  std::function<float(float, float)> golden;
};

// Named by mnemonic in the test name: gtest's default raw-byte dump would
// print the string and std::function addresses, which move from build to
// build.
void PrintTo(const FpCase& c, std::ostream* os) { *os << c.mnemonic; }

class FpBinarySemantics : public ::testing::TestWithParam<FpCase> {};

TEST_P(FpBinarySemantics, MatchesHostIeee) {
  const FpCase& test_case = GetParam();
  iw::Rng rng(555);
  const float interesting[] = {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 1e-20f,
                               1e20f, 3.14159f, -2.71828f};
  for (float a : interesting) {
    for (float b : interesting) {
      if (test_case.golden(a, b) != test_case.golden(a, b)) continue;  // NaN
      EXPECT_EQ(run_fp_binary(test_case.mnemonic, a, b),
                bits_of(test_case.golden(a, b)))
          << test_case.mnemonic << " " << a << " " << b;
    }
  }
  for (int trial = 0; trial < 100; ++trial) {
    const float a = static_cast<float>(rng.uniform(-1e3, 1e3));
    const float b = static_cast<float>(rng.uniform(-1e3, 1e3));
    EXPECT_EQ(run_fp_binary(test_case.mnemonic, a, b), bits_of(test_case.golden(a, b)))
        << test_case.mnemonic << " " << a << " " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, FpBinarySemantics,
    ::testing::Values(FpCase{"fadd.s", [](float a, float b) { return a + b; }},
                      FpCase{"fsub.s", [](float a, float b) { return a - b; }},
                      FpCase{"fmul.s", [](float a, float b) { return a * b; }},
                      FpCase{"fdiv.s", [](float a, float b) { return a / b; }}),
    [](const ::testing::TestParamInfo<FpCase>& info) {
      std::string name = info.param.mnemonic;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST(FpSemantics, FmaddMatchesHost) {
  iw::Rng rng(777);
  for (int trial = 0; trial < 100; ++trial) {
    const float a = static_cast<float>(rng.uniform(-100.0, 100.0));
    const float b = static_cast<float>(rng.uniform(-100.0, 100.0));
    const float c = static_cast<float>(rng.uniform(-100.0, 100.0));
    const asmx::Program program = asmx::assemble(
        "flw f0, 0x400(zero)\n"
        "flw f1, 0x404(zero)\n"
        "flw f2, 0x408(zero)\n"
        "fmadd.s f3, f0, f1, f2\n"
        "fsw f3, 0x40C(zero)\n"
        "ecall\n");
    Machine machine(cortex_m4f(), 1 << 16);
    machine.load_program(program.words);
    machine.memory().store32(0x400, bits_of(a));
    machine.memory().store32(0x404, bits_of(b));
    machine.memory().store32(0x408, bits_of(c));
    machine.run(0);
    EXPECT_EQ(machine.memory().load32(0x40C), bits_of(a * b + c))
        << a << " " << b << " " << c;
  }
}

TEST(FpSemantics, ConvertRoundTrips) {
  iw::Rng rng(888);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int32_t v =
        static_cast<std::int32_t>(rng.uniform_int(2000001)) - 1000000;
    const asmx::Program program = asmx::assemble(
        "lw a0, 0x400(zero)\n"
        "fcvt.s.w f0, a0\n"
        "fcvt.w.s a1, f0\n"
        "ecall\n");
    Machine machine(cortex_m4f(), 1 << 16);
    machine.load_program(program.words);
    machine.memory().store32(0x400, static_cast<std::uint32_t>(v));
    machine.run(0);
    // Integers up to 2^24 are exact in single precision.
    EXPECT_EQ(static_cast<std::int32_t>(machine.core().reg(11)), v);
  }
}

TEST(FpSemantics, CompareOperators) {
  const auto compare = [](const char* op, float a, float b) {
    const asmx::Program program = asmx::assemble(
        "flw f0, 0x400(zero)\n"
        "flw f1, 0x404(zero)\n" +
        std::string(op) + " a0, f0, f1\n"
        "ecall\n");
    Machine machine(cortex_m4f(), 1 << 16);
    machine.load_program(program.words);
    machine.memory().store32(0x400, bits_of(a));
    machine.memory().store32(0x404, bits_of(b));
    machine.run(0);
    return machine.core().reg(10);
  };
  EXPECT_EQ(compare("flt.s", 1.0f, 2.0f), 1u);
  EXPECT_EQ(compare("flt.s", 2.0f, 1.0f), 0u);
  EXPECT_EQ(compare("fle.s", 2.0f, 2.0f), 1u);
  EXPECT_EQ(compare("feq.s", -0.0f, 0.0f), 1u);  // IEEE: -0 == +0
  EXPECT_EQ(compare("feq.s", 1.0f, 2.0f), 0u);
}

TEST(FpSemantics, SignInjection) {
  EXPECT_EQ(run_fp_binary("fsgnj.s", 3.0f, -1.0f), bits_of(-3.0f));
  EXPECT_EQ(run_fp_binary("fsgnj.s", -3.0f, 1.0f), bits_of(3.0f));
  EXPECT_EQ(run_fp_binary("fsgnjn.s", 3.0f, 1.0f), bits_of(-3.0f));
}

}  // namespace
}  // namespace iw::rv
