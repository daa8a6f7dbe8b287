// Property tests: ISS instruction semantics vs a host-side golden model,
// over random and adversarial operand values.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "asmx/assembler.hpp"
#include "common/rng.hpp"
#include "rvsim/machine.hpp"

namespace iw::rv {
namespace {

using U = std::uint32_t;
using S = std::int32_t;

S s(U v) { return static_cast<S>(v); }
U u(S v) { return static_cast<U>(v); }

/// Executes `op a2, a0, a1` with the given operand values and returns a2.
U run_binary(const std::string& mnemonic, U a, U b) {
  static constexpr std::uint32_t kOperands = 0x400;
  const asmx::Program program = asmx::assemble(
      "lw a0, " + std::to_string(kOperands) + "(zero)\n" +
      "lw a1, " + std::to_string(kOperands + 4) + "(zero)\n" +
      mnemonic + " a2, a0, a1\n"
      "mv a0, a2\n"
      "ecall\n");
  Machine machine(ri5cy(), 1 << 16);
  machine.load_program(program.words);
  machine.memory().store32(kOperands, a);
  machine.memory().store32(kOperands + 4, b);
  machine.run(0);
  return machine.core().reg(10);
}

struct BinaryCase {
  const char* mnemonic;
  std::function<U(U, U)> golden;
};

// gtest prints a parameter into its test name. Name each case by its
// mnemonic: the default raw-byte dump would print the addresses of the
// string and of the std::function, which move from build to build.
void PrintTo(const BinaryCase& c, std::ostream* os) { *os << c.mnemonic; }

class BinarySemantics : public ::testing::TestWithParam<BinaryCase> {};

std::vector<std::pair<U, U>> operand_corpus() {
  static const U interesting[] = {
      0u, 1u, 2u, 31u, 32u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu,
      0xFFFFFFFEu, 0x55555555u, 0xAAAAAAAAu, 0x00010000u};
  std::vector<std::pair<U, U>> corpus;
  for (U a : interesting) {
    for (U b : interesting) corpus.emplace_back(a, b);
  }
  iw::Rng rng(12345);
  for (int i = 0; i < 150; ++i) {
    corpus.emplace_back(static_cast<U>(rng.next()), static_cast<U>(rng.next()));
  }
  return corpus;
}

TEST_P(BinarySemantics, MatchesGoldenModel) {
  const BinaryCase& test_case = GetParam();
  for (const auto& [a, b] : operand_corpus()) {
    EXPECT_EQ(run_binary(test_case.mnemonic, a, b), test_case.golden(a, b))
        << test_case.mnemonic << " a=0x" << std::hex << a << " b=0x" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AluAndMul, BinarySemantics,
    ::testing::Values(
        BinaryCase{"add", [](U a, U b) { return a + b; }},
        BinaryCase{"sub", [](U a, U b) { return a - b; }},
        BinaryCase{"sll", [](U a, U b) { return a << (b & 31); }},
        BinaryCase{"srl", [](U a, U b) { return a >> (b & 31); }},
        BinaryCase{"sra", [](U a, U b) { return u(s(a) >> (b & 31)); }},
        BinaryCase{"slt", [](U a, U b) { return U{s(a) < s(b) ? 1u : 0u}; }},
        BinaryCase{"sltu", [](U a, U b) { return U{a < b ? 1u : 0u}; }},
        BinaryCase{"xor", [](U a, U b) { return a ^ b; }},
        BinaryCase{"or", [](U a, U b) { return a | b; }},
        BinaryCase{"and", [](U a, U b) { return a & b; }},
        BinaryCase{"mul", [](U a, U b) { return a * b; }},
        BinaryCase{"mulh",
                   [](U a, U b) {
                     return static_cast<U>(
                         (static_cast<std::int64_t>(s(a)) * s(b)) >> 32);
                   }},
        BinaryCase{"mulhsu",
                   [](U a, U b) {
                     return static_cast<U>((static_cast<std::int64_t>(s(a)) *
                                            static_cast<std::uint64_t>(b)) >>
                                           32);
                   }},
        BinaryCase{"mulhu",
                   [](U a, U b) {
                     return static_cast<U>((static_cast<std::uint64_t>(a) * b) >> 32);
                   }},
        BinaryCase{"div",
                   [](U a, U b) {
                     if (b == 0) return ~0u;
                     if (s(a) == std::numeric_limits<S>::min() && s(b) == -1) return a;
                     return u(s(a) / s(b));
                   }},
        BinaryCase{"divu", [](U a, U b) { return b == 0 ? ~0u : a / b; }},
        BinaryCase{"rem",
                   [](U a, U b) {
                     if (b == 0) return a;
                     if (s(a) == std::numeric_limits<S>::min() && s(b) == -1) return 0u;
                     return u(s(a) % s(b));
                   }},
        BinaryCase{"remu", [](U a, U b) { return b == 0 ? a : a % b; }},
        BinaryCase{"p.min", [](U a, U b) { return s(a) < s(b) ? a : b; }},
        BinaryCase{"p.max", [](U a, U b) { return s(a) > s(b) ? a : b; }},
        BinaryCase{"pv.dotsp.h",
                   [](U a, U b) {
                     const S lo = static_cast<std::int16_t>(a & 0xFFFF) *
                                  static_cast<std::int16_t>(b & 0xFFFF);
                     const S hi = static_cast<std::int16_t>(a >> 16) *
                                  static_cast<std::int16_t>(b >> 16);
                     return u(lo + hi);
                   }}),
    [](const ::testing::TestParamInfo<BinaryCase>& info) {
      std::string name = info.param.mnemonic;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

/// Immediate-form ops against their register-form golden equivalents.
struct ImmCase {
  const char* mnemonic;
  std::function<U(U, S)> golden;
  S imm_lo, imm_hi;
};

void PrintTo(const ImmCase& c, std::ostream* os) { *os << c.mnemonic; }

class ImmediateSemantics : public ::testing::TestWithParam<ImmCase> {};

TEST_P(ImmediateSemantics, MatchesGoldenModel) {
  const ImmCase& test_case = GetParam();
  iw::Rng rng(777);
  static constexpr std::uint32_t kOperand = 0x400;
  for (int trial = 0; trial < 60; ++trial) {
    const U a = static_cast<U>(rng.next());
    const S imm =
        test_case.imm_lo +
        static_cast<S>(rng.uniform_int(
            static_cast<std::uint64_t>(test_case.imm_hi - test_case.imm_lo + 1)));
    const asmx::Program program = asmx::assemble(
        "lw a0, " + std::to_string(kOperand) + "(zero)\n" +
        test_case.mnemonic + " a0, a0, " + std::to_string(imm) + "\n"
        "ecall\n");
    Machine machine(ri5cy(), 1 << 16);
    machine.load_program(program.words);
    machine.memory().store32(kOperand, a);
    machine.run(0);
    EXPECT_EQ(machine.core().reg(10), test_case.golden(a, imm))
        << test_case.mnemonic << " a=0x" << std::hex << a << std::dec
        << " imm=" << imm;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ImmediateOps, ImmediateSemantics,
    ::testing::Values(
        ImmCase{"addi", [](U a, S i) { return a + u(i); }, -2048, 2047},
        ImmCase{"xori", [](U a, S i) { return a ^ u(i); }, -2048, 2047},
        ImmCase{"ori", [](U a, S i) { return a | u(i); }, -2048, 2047},
        ImmCase{"andi", [](U a, S i) { return a & u(i); }, -2048, 2047},
        ImmCase{"slti", [](U a, S i) { return U{s(a) < i ? 1u : 0u}; }, -2048, 2047},
        ImmCase{"sltiu", [](U a, S i) { return U{a < u(i) ? 1u : 0u}; }, -2048, 2047},
        ImmCase{"slli", [](U a, S i) { return a << i; }, 0, 31},
        ImmCase{"srli", [](U a, S i) { return a >> i; }, 0, 31},
        ImmCase{"srai", [](U a, S i) { return u(s(a) >> i); }, 0, 31},
        ImmCase{"p.clip",
                [](U a, S i) {
                  const S hi = (S{1} << (i - 1)) - 1;
                  const S lo = -(S{1} << (i - 1));
                  const S v = s(a);
                  return u(v < lo ? lo : (v > hi ? hi : v));
                },
                1, 31}),
    [](const ::testing::TestParamInfo<ImmCase>& info) {
      std::string name = info.param.mnemonic;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

/// Unary Xpulp ALU ops: `op a1, a0`.
struct UnaryCase {
  const char* mnemonic;
  std::function<U(U)> golden;
};

void PrintTo(const UnaryCase& c, std::ostream* os) { *os << c.mnemonic; }

class UnarySemantics : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnarySemantics, MatchesGoldenModel) {
  const UnaryCase& test_case = GetParam();
  static constexpr std::uint32_t kOperand = 0x400;
  for (const auto& [a, b] : operand_corpus()) {
    (void)b;
    const asmx::Program program = asmx::assemble(
        "lw a0, " + std::to_string(kOperand) + "(zero)\n" +
        test_case.mnemonic + " a0, a0\n"
        "ecall\n");
    Machine machine(ri5cy(), 1 << 16);
    machine.load_program(program.words);
    machine.memory().store32(kOperand, a);
    machine.run(0);
    EXPECT_EQ(machine.core().reg(10), test_case.golden(a))
        << test_case.mnemonic << " a=0x" << std::hex << a;
  }
}

INSTANTIATE_TEST_SUITE_P(
    UnaryOps, UnarySemantics,
    ::testing::Values(
        UnaryCase{"p.abs", [](U a) { return s(a) < 0 ? U{0} - a : a; }},
        UnaryCase{"p.exths",
                  [](U a) { return u(static_cast<std::int16_t>(a & 0xFFFF)); }},
        UnaryCase{"p.extbs", [](U a) { return u(static_cast<std::int8_t>(a & 0xFF)); }}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      std::string name = info.param.mnemonic;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

/// Branch predicates: the branch must be taken exactly when the golden
/// predicate holds.
struct BranchCase {
  const char* mnemonic;
  std::function<bool(U, U)> taken;
};

void PrintTo(const BranchCase& c, std::ostream* os) { *os << c.mnemonic; }

class BranchSemantics : public ::testing::TestWithParam<BranchCase> {};

TEST_P(BranchSemantics, TakenExactlyWhenPredicateHolds) {
  const BranchCase& test_case = GetParam();
  for (const auto& [a, b] : operand_corpus()) {
    static constexpr std::uint32_t kOperands = 0x400;
    const asmx::Program program = asmx::assemble(
        "lw a0, " + std::to_string(kOperands) + "(zero)\n" +
        "lw a1, " + std::to_string(kOperands + 4) + "(zero)\n" +
        std::string(test_case.mnemonic) + " a0, a1, taken\n"
        "li a0, 0\n"
        "ecall\n"
        "taken:\n"
        "li a0, 1\n"
        "ecall\n");
    Machine machine(ri5cy(), 1 << 16);
    machine.load_program(program.words);
    machine.memory().store32(kOperands, a);
    machine.memory().store32(kOperands + 4, b);
    machine.run(0);
    EXPECT_EQ(machine.core().reg(10), test_case.taken(a, b) ? 1u : 0u)
        << test_case.mnemonic << " a=0x" << std::hex << a << " b=0x" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Branches, BranchSemantics,
    ::testing::Values(BranchCase{"beq", [](U a, U b) { return a == b; }},
                      BranchCase{"bne", [](U a, U b) { return a != b; }},
                      BranchCase{"blt", [](U a, U b) { return s(a) < s(b); }},
                      BranchCase{"bge", [](U a, U b) { return s(a) >= s(b); }},
                      BranchCase{"bltu", [](U a, U b) { return a < b; }},
                      BranchCase{"bgeu", [](U a, U b) { return a >= b; }}),
    [](const ::testing::TestParamInfo<BranchCase>& info) {
      return info.param.mnemonic;
    });

}  // namespace
}  // namespace iw::rv
