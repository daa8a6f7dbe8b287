// iw_rvsim_analysis: one test per diagnostic kind, CFG/cycle-bound
// properties, the reference-kernel matrix, and the Machine verify_on_load
// gate. The companion fuzz cross-check (analyzer verdict vs Core::step for
// random words) lives in test_decode_fuzz.cpp.
#include "rvsim/analysis/analysis.hpp"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>

#include "asmx/assembler.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/feature_kernel.hpp"
#include "kernels/runner.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "nn/quantize16.hpp"
#include "rvsim/machine.hpp"
#include "rvsim/memory.hpp"
#include "rvsim/timing.hpp"
#include "support/test_inputs.hpp"

namespace iw::rv::analysis {
namespace {

constexpr std::size_t kMem = 4096;

/// Assembles `src` at base 0 into a fresh image and analyzes it from `main`.
AnalysisReport analyze_asm(const std::string& src, const TimingProfile& profile,
                           const AnalyzeOptions& options = {}) {
  const asmx::Program p = asmx::assemble(src);
  Memory mem(kMem);
  mem.write_words(p.base, std::span<const std::uint32_t>(p.words));
  return analyze(mem, p.symbol("main"), profile, options);
}

const Diagnostic* find_diag(const AnalysisReport& r, DiagKind kind) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.kind == kind) return &d;
  }
  return nullptr;
}

bool has_error(const AnalysisReport& r, DiagKind kind) {
  const Diagnostic* d = find_diag(r, kind);
  return d != nullptr && d->severity == Severity::kError;
}

/// Runs the image on a Machine (no verify gate) and returns dynamic cycles.
std::uint64_t dynamic_cycles(const std::string& src, const TimingProfile& profile) {
  const asmx::Program p = asmx::assemble(src);
  Machine machine(profile, kMem);
  machine.load_program(std::span<const std::uint32_t>(p.words));
  return machine.run(p.symbol("main")).cycles;
}

// ---------------------------------------------------------------------------
// Clean programs.

TEST(Analysis, StraightLineProgramIsClean) {
  const std::string src = R"(
main:
    addi a0, zero, 3
    addi a1, zero, 4
    add  a2, a0, a1
    ecall
)";
  for (const TimingProfile& profile : {cortex_m4f(), ibex(), ri5cy()}) {
    const AnalysisReport r = analyze_asm(src, profile);
    EXPECT_TRUE(r.ok()) << profile.name << "\n" << r.to_text();
    EXPECT_EQ(r.words_analyzed, 4u) << profile.name;
    ASSERT_EQ(r.blocks.size(), 1u) << profile.name;
    EXPECT_TRUE(r.blocks[0].halts);
    const std::uint64_t dyn = dynamic_cycles(src, profile);
    EXPECT_GT(r.min_cycles, 0u);
    EXPECT_LE(r.min_cycles, dyn) << profile.name;
    EXPECT_NE(r.max_cycles, kUnboundedCycles) << profile.name;
    EXPECT_GE(r.max_cycles, dyn) << profile.name;
    EXPECT_EQ(r.stack_bytes, 0u) << profile.name;
  }
}

TEST(Analysis, BranchLoopBoundIsAtMostDynamic) {
  // 10-iteration countdown loop in plain RV32IM (valid on all profiles).
  const std::string src = R"(
main:
    addi t0, zero, 10
loop:
    addi t0, t0, -1
    bne  t0, zero, loop
    ecall
)";
  for (const TimingProfile& profile : {cortex_m4f(), ibex(), ri5cy()}) {
    const AnalysisReport r = analyze_asm(src, profile);
    EXPECT_TRUE(r.ok()) << profile.name << "\n" << r.to_text();
    // The floor must not charge the nine taken back edges: it is the
    // cheapest entry-to-halt path (one loop pass), so well below dynamic.
    // The ceiling recognizes the countdown pattern (`addi t0, t0, -1` is the
    // sole writer of the branch register, init proven 10) and charges all ten.
    const std::uint64_t dyn = dynamic_cycles(src, profile);
    EXPECT_GT(r.min_cycles, 0u);
    EXPECT_LE(r.min_cycles, dyn) << profile.name;
    EXPECT_NE(r.max_cycles, kUnboundedCycles) << profile.name;
    EXPECT_GE(r.max_cycles, dyn) << profile.name;
  }
}

TEST(Analysis, HwloopSurchargeCountsStaticIterations) {
  // lp.setupi with a static count of 8 and a two-instruction body: the bound
  // must include all eight guaranteed body iterations, and stay below the
  // dynamic count.
  const std::string src = R"(
main:
    lp.setupi 0, 8, loop_end
    addi a0, a0, 1
    addi a1, a1, 2
loop_end:
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(r.ok()) << r.to_text();
  ASSERT_EQ(r.loops.size(), 1u);
  EXPECT_EQ(r.loops[0].static_count, 8u);
  EXPECT_EQ(r.loops[0].exact_count, 8u);
  EXPECT_TRUE(r.loops[0].well_formed);
  const std::uint64_t dyn = dynamic_cycles(src, ri5cy());
  EXPECT_GE(r.min_cycles, 16u);  // 8 iterations x 2 single-cycle ALU ops
  EXPECT_LE(r.min_cycles, dyn);
  EXPECT_NE(r.max_cycles, kUnboundedCycles);
  EXPECT_GE(r.max_cycles, dyn);
}

// ---------------------------------------------------------------------------
// One test per diagnostic kind.

TEST(Analysis, DiagIllegalWord) {
  const std::string src = R"(
main:
    addi a0, zero, 1
    .word 0xffffffff
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_FALSE(r.ok());
  const Diagnostic* d = find_diag(r, DiagKind::kIllegalWord);
  ASSERT_NE(d, nullptr) << r.to_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->pc, 4u);
  EXPECT_NE(d->message.find("0x00000004"), std::string::npos) << d->message;
}

TEST(Analysis, DiagUnsupportedInstructionCarriesPcAndDisassembly) {
  const std::string src = R"(
main:
    addi a0, zero, 5
    addi a1, zero, 3
    p.mac a2, a0, a1
    ecall
)";
  // Clean on RI5CY (Xpulp), a load-time diagnostic on IBEX.
  EXPECT_TRUE(analyze_asm(src, ri5cy()).ok());
  const AnalysisReport r = analyze_asm(src, ibex());
  EXPECT_FALSE(r.ok());
  const Diagnostic* d = find_diag(r, DiagKind::kUnsupportedInstruction);
  ASSERT_NE(d, nullptr) << r.to_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->pc, 8u);
  EXPECT_NE(d->message.find("ibex"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("pc=0x00000008"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("p.mac"), std::string::npos) << d->message;
}

TEST(Analysis, DiagTargetOutOfImage) {
  const std::string src = R"(
main:
    j main+8192
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kTargetOutOfImage)) << r.to_text();
}

TEST(Analysis, DiagTargetMisaligned) {
  const std::string src = R"(
main:
    j main+2
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kTargetMisaligned)) << r.to_text();
}

TEST(Analysis, DiagHwloopBadBounds) {
  // Zero-length body: end == start.
  const std::string src = R"(
main:
    lp.setupi 0, 4, body
body:
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kHwloopBadBounds)) << r.to_text();
  ASSERT_EQ(r.loops.size(), 1u);
  EXPECT_FALSE(r.loops[0].well_formed);
}

TEST(Analysis, DiagHwloopTooDeep) {
  const std::string src = R"(
main:
    lp.setupi 0, 2, outer_end
    lp.setupi 1, 2, mid_end
    lp.setupi 0, 2, inner_end
    addi a0, a0, 1
inner_end:
    addi a1, a1, 1
mid_end:
    addi a2, a2, 1
outer_end:
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kHwloopTooDeep)) << r.to_text();
}

TEST(Analysis, DiagHwloopOverlapSameSlotReArm) {
  const std::string src = R"(
main:
    lp.setupi 0, 2, outer_end
    lp.setupi 0, 2, inner_end
    addi a0, a0, 1
inner_end:
    addi a1, a1, 1
outer_end:
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kHwloopOverlap)) << r.to_text();
}

TEST(Analysis, DiagHwloopBranchIn) {
  const std::string src = R"(
main:
    lp.setupi 0, 4, loop_end
body:
    addi a0, a0, 1
    addi a1, a1, 1
loop_end:
    beq  a0, a2, body
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kHwloopBranchIn)) << r.to_text();
}

TEST(Analysis, DiagHwloopBranchOut) {
  const std::string src = R"(
main:
    lp.setupi 0, 4, loop_end
    beq  a0, a1, escape
    addi a0, a0, 1
loop_end:
    addi a2, a2, 1
escape:
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kHwloopBranchOut)) << r.to_text();
}

TEST(Analysis, DiagHwloopBadLastInstruction) {
  // The outer body's last instruction is another lp.setupi (whose own body
  // lies entirely after the outer loop, so no overlap diagnostic interferes).
  const std::string src = R"(
main:
    lp.setupi 0, 4, outer_end
    addi a0, a0, 1
    lp.setupi 1, 2, inner_end
outer_end:
    addi a1, a1, 1
inner_end:
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kHwloopBadLastInstruction)) << r.to_text();
}

TEST(Analysis, DiagStaticAccessOutOfImage) {
  const std::string src = R"(
main:
    lui a0, 0x10
    lw  a1, 0(a0)
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kStaticAccessOutOfImage)) << r.to_text();
}

TEST(Analysis, DiagStaticAccessMisaligned) {
  const std::string src = R"(
main:
    addi a0, zero, 6
    lw   a1, 0(a0)
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(has_error(r, DiagKind::kStaticAccessMisaligned)) << r.to_text();
}

TEST(Analysis, DiagIndirectJumpIsNoteByDefault) {
  // A computed jump (`jr a0` = jalr x0, a0, 0) has a genuinely unknown
  // target: a note by default, an error under strict options, and a CFG
  // sink with an unbounded worst-case bound.
  const std::string src = R"(
main:
    jr a0
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  const Diagnostic* d = find_diag(r, DiagKind::kIndirectJump);
  ASSERT_NE(d, nullptr) << r.to_text();
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_TRUE(r.ok()) << r.to_text();  // notes do not fail the report
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_TRUE(r.blocks[0].has_indirect);
  EXPECT_TRUE(r.blocks[0].successors.empty());
  EXPECT_EQ(r.max_cycles, kUnboundedCycles);

  AnalyzeOptions strict;
  strict.indirect_jump_is_error = true;
  const AnalysisReport rs = analyze_asm(src, ri5cy(), strict);
  EXPECT_TRUE(has_error(rs, DiagKind::kIndirectJump));
  EXPECT_FALSE(rs.ok());
}

TEST(Analysis, ReturnIsAFunctionSinkNotAnIndirectJump) {
  const std::string src = R"(
main:
    ret
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(find_diag(r, DiagKind::kIndirectJump), nullptr) << r.to_text();
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_FALSE(r.blocks[0].has_indirect);
  EXPECT_TRUE(r.blocks[0].is_return);
  EXPECT_TRUE(r.blocks[0].successors.empty());
  // A bare return is a complete (trivial) function: finite bounds.
  EXPECT_NE(r.max_cycles, kUnboundedCycles);
  EXPECT_GE(r.max_cycles, r.min_cycles);
}

TEST(Analysis, DiagKindNamesAreStableAndUnique) {
  std::set<std::string> names;
  for (int k = 0; k <= static_cast<int>(DiagKind::kUnknownStackPointer); ++k) {
    const char* name = diag_kind_name(static_cast<DiagKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
  EXPECT_EQ(names.size(), 17u);
}

// ---------------------------------------------------------------------------
// Interprocedural WCET and stack-depth composition.

TEST(Analysis, CallCompositionSandwichesDynamicCycles) {
  // main calls a leaf helper twice; both bounds must compose the callee's
  // bounds into the caller and sandwich the dynamic count.
  const std::string src = R"(
main:
    addi a0, zero, 0
    call helper
    call helper
    ecall
helper:
    addi a0, a0, 1
    addi a0, a0, 2
    ret
)";
  for (const TimingProfile& profile : {cortex_m4f(), ibex(), ri5cy()}) {
    const AnalysisReport r = analyze_asm(src, profile);
    EXPECT_TRUE(r.ok()) << profile.name << "\n" << r.to_text();
    ASSERT_EQ(r.functions.size(), 2u) << profile.name;
    EXPECT_EQ(r.functions[0].entry, 0u);
    EXPECT_FALSE(r.functions[0].recursive);
    EXPECT_NE(r.functions[1].max_cycles, kUnboundedCycles) << profile.name;
    const std::uint64_t dyn = dynamic_cycles(src, profile);
    EXPECT_GT(r.min_cycles, 0u);
    EXPECT_LE(r.min_cycles, dyn) << profile.name;
    EXPECT_NE(r.max_cycles, kUnboundedCycles) << profile.name;
    EXPECT_GE(r.max_cycles, dyn) << profile.name;
    EXPECT_EQ(r.stack_bytes, 0u) << profile.name;
  }
}

TEST(Analysis, RecursionIsANoteWithUnboundedCeiling) {
  const std::string src = R"(
main:
    call rec
    ecall
rec:
    beq  a0, zero, done
    addi a0, a0, -1
    call rec
done:
    ret
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(r.ok()) << r.to_text();  // recursion is a note, not an error
  const Diagnostic* d = find_diag(r, DiagKind::kRecursiveCall);
  ASSERT_NE(d, nullptr) << r.to_text();
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_EQ(r.max_cycles, kUnboundedCycles);
  EXPECT_EQ(r.stack_bytes, kUnboundedCycles);
  bool saw_recursive = false;
  for (const FunctionSummary& f : r.functions) {
    if (f.recursive) {
      saw_recursive = true;
      EXPECT_EQ(f.max_cycles, kUnboundedCycles);
      EXPECT_EQ(f.stack_bytes, kUnboundedCycles);
    }
  }
  EXPECT_TRUE(saw_recursive);
  // The floor stays sound and finite.
  EXPECT_GT(r.min_cycles, 0u);
}

TEST(Analysis, UnboundedLoopIsANoteWithUnboundedCeiling) {
  // The countdown pattern needs a statically-known initial value; a0 is
  // unknown at entry, so this loop has no static bound.
  const std::string src = R"(
main:
loop:
    addi a0, a0, -1
    bne  a0, zero, loop
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(r.ok()) << r.to_text();
  const Diagnostic* d = find_diag(r, DiagKind::kUnboundedLoop);
  ASSERT_NE(d, nullptr) << r.to_text();
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_EQ(r.max_cycles, kUnboundedCycles);
  EXPECT_GT(r.min_cycles, 0u);
}

TEST(Analysis, LoopBoundAnnotationMakesCeilingFinite) {
  const std::string src = R"(
main:
loop:
    addi a0, a0, -1
    bne  a0, zero, loop
    ecall
)";
  AnalyzeOptions options;
  options.loop_bounds[0] = 10;  // keyed by the loop head pc
  const AnalysisReport r = analyze_asm(src, ri5cy(), options);
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(find_diag(r, DiagKind::kUnboundedLoop), nullptr) << r.to_text();
  EXPECT_NE(r.max_cycles, kUnboundedCycles);
  EXPECT_GE(r.max_cycles, r.min_cycles);
  // Ten iterations of a two-instruction body: at least 20 cycles.
  EXPECT_GE(r.max_cycles, 20u);
}

TEST(Analysis, ShiftLoopPatternBoundsIterations) {
  // srli as the sole writer of the branch register halves it every pass, so
  // the loop runs at most 32 + 2 iterations even with an unknown input.
  const std::string src = R"(
main:
loop:
    srli a0, a0, 1
    bne  a0, zero, loop
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(find_diag(r, DiagKind::kUnboundedLoop), nullptr) << r.to_text();
  const std::uint64_t dyn = dynamic_cycles(src, ri5cy());
  EXPECT_NE(r.max_cycles, kUnboundedCycles);
  EXPECT_GE(r.max_cycles, dyn);
  EXPECT_LE(r.min_cycles, dyn);
}

TEST(Analysis, LpSetupRegisterCountProvenByConstprop) {
  const std::string src = R"(
main:
    addi t0, zero, 5
    lp.setup 0, t0, loop_end
    addi a0, a0, 1
    addi a1, a1, 1
loop_end:
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(r.ok()) << r.to_text();
  ASSERT_EQ(r.loops.size(), 1u);
  EXPECT_EQ(r.loops[0].static_count, 5u);
  EXPECT_EQ(r.loops[0].exact_count, 5u);
  const std::uint64_t dyn = dynamic_cycles(src, ri5cy());
  EXPECT_GE(r.min_cycles, 10u);  // 5 iterations x 2 single-cycle ALU ops
  EXPECT_LE(r.min_cycles, dyn);
  EXPECT_NE(r.max_cycles, kUnboundedCycles);
  EXPECT_GE(r.max_cycles, dyn);
}

TEST(Analysis, StackDepthComposesOverCalls) {
  const std::string src = R"(
main:
    addi sp, sp, -16
    sw   ra, 12(sp)
    call helper
    lw   ra, 12(sp)
    addi sp, sp, 16
    ret
helper:
    addi sp, sp, -32
    sw   s0, 28(sp)
    lw   s0, 28(sp)
    addi sp, sp, 32
    ret
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(r.stack_bytes, 48u);  // 16 (main) + 32 (helper)
  ASSERT_EQ(r.functions.size(), 2u);
  EXPECT_EQ(r.functions[0].stack_bytes, 48u);
  EXPECT_EQ(r.functions[1].stack_bytes, 32u);
  EXPECT_NE(r.max_cycles, kUnboundedCycles);

  AnalyzeOptions tight;
  tight.stack_limit_bytes = 32;
  const AnalysisReport rt = analyze_asm(src, ri5cy(), tight);
  EXPECT_TRUE(has_error(rt, DiagKind::kStackOverflow)) << rt.to_text();
  EXPECT_FALSE(rt.ok());

  AnalyzeOptions roomy;
  roomy.stack_limit_bytes = 48;
  EXPECT_TRUE(analyze_asm(src, ri5cy(), roomy).ok());
}

TEST(Analysis, RebuiltStackPointerIsANote) {
  const std::string src = R"(
main:
    mv   sp, a0
    ret
)";
  const AnalysisReport r = analyze_asm(src, ri5cy());
  EXPECT_TRUE(r.ok()) << r.to_text();
  const Diagnostic* d = find_diag(r, DiagKind::kUnknownStackPointer);
  ASSERT_NE(d, nullptr) << r.to_text();
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_EQ(r.stack_bytes, kUnboundedCycles);
  // The cycle bounds are unaffected by an untracked stack pointer.
  EXPECT_NE(r.max_cycles, kUnboundedCycles);
}

// ---------------------------------------------------------------------------
// Report serialization.

TEST(Analysis, ReportSerializesToTextAndJson) {
  const std::string src = R"(
main:
    p.mac a2, a0, a1
    ecall
)";
  const AnalysisReport r = analyze_asm(src, ibex());
  const std::string text = r.to_text();
  EXPECT_NE(text.find("profile=ibex"), std::string::npos) << text;
  EXPECT_NE(text.find("unsupported-instruction"), std::string::npos) << text;
  const std::string json = r.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"profile\":\"ibex\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"unsupported-instruction\""), std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Reference kernel matrix (the iw_lint --kernels contract).

TEST(Analysis, ReferenceKernelsAreCleanUnderIntendedProfile) {
  for (const kernels::KernelImage& img : kernels::reference_kernel_images()) {
    Memory mem(img.mem_bytes);
    mem.write_words(img.program.base,
                    std::span<const std::uint32_t>(img.program.words));
    const AnalysisReport r = analyze(mem, img.entry, img.profile);
    EXPECT_TRUE(r.ok()) << img.name << "\n" << r.to_text();
    EXPECT_GT(r.min_cycles, 0u) << img.name;
    EXPECT_GT(r.blocks.size(), 1u) << img.name;
  }
}

TEST(Analysis, XpulpKernelsAreRejectedUnderIbexWithAddressedDiagnostic) {
  const TimingProfile profile = ibex();
  int checked = 0;
  for (const kernels::KernelImage& img : kernels::reference_kernel_images()) {
    if (!img.expect_reject_on_ibex) continue;
    ++checked;
    Memory mem(img.mem_bytes);
    mem.write_words(img.program.base,
                    std::span<const std::uint32_t>(img.program.words));
    const AnalysisReport r = analyze(mem, img.entry, profile);
    ASSERT_FALSE(r.ok()) << img.name;
    const Diagnostic* d = find_diag(r, DiagKind::kUnsupportedInstruction);
    ASSERT_NE(d, nullptr) << img.name << "\n" << r.to_text();
    EXPECT_NE(d->message.find("ibex"), std::string::npos) << d->message;
    EXPECT_NE(d->message.find("pc=0x"), std::string::npos) << d->message;
  }
  EXPECT_GE(checked, 5);
}

// ---------------------------------------------------------------------------
// Static bound <= dynamic cycles on the Table-III kernels, via the runner
// (which arms the verify gate and records the analyzer's bound per run).

using iw::test::random_input;

/// floor <= dynamic <= ceiling, with a finite ceiling.
void expect_sandwich(const kernels::KernelRunResult& r, const std::string& label) {
  EXPECT_GT(r.static_min_cycles, 0u) << label;
  EXPECT_LE(r.static_min_cycles, r.cycles) << label;
  EXPECT_NE(r.static_max_cycles, kUnboundedCycles) << label;
  EXPECT_GE(r.static_max_cycles, r.cycles)
      << label << ": dynamic " << r.cycles << " exceeds static ceiling "
      << r.static_max_cycles;
  EXPECT_EQ(r.static_stack_bytes, 0u) << label;  // the kernels are stackless
}

TEST(Analysis, StaticBoundsSandwichDynamicOnTable3Kernels) {
  iw::Rng rng(7);
  const nn::Network net = nn::Network::create({4, 6, 2}, rng);
  const std::vector<float> in = random_input(4, rng);

  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  const auto input = qn.quantize_input(in);
  for (const kernels::Target target :
       {kernels::Target::kCortexM4, kernels::Target::kIbex,
        kernels::Target::kRi5cySingle, kernels::Target::kRi5cyMulti}) {
    expect_sandwich(kernels::run_fixed_mlp(qn, input, target),
                    kernels::target_name(target));
  }

  expect_sandwich(kernels::run_fixed_mlp_parallel(qn, input, 2), "parallel-2");

  const nn::QuantizedNetwork16 qn16 = nn::QuantizedNetwork16::from(net);
  const auto input16 = qn16.quantize_input(in);
  expect_sandwich(kernels::run_simd_mlp(qn16, input16), "simd");
  expect_sandwich(kernels::run_simd_mlp_parallel(qn16, input16, 4), "simd-parallel-4");

  expect_sandwich(kernels::run_float_mlp(net, in), "float-m4f");
}

TEST(Analysis, StaticBoundsSandwichDynamicOnFeatureKernels) {
  iw::Rng rng(11);
  std::vector<std::int32_t> rr(64);
  for (std::int32_t& v : rr) {
    v = 700 + static_cast<std::int32_t>(rng.uniform(0.0, 200.0));
  }
  const kernels::HrvKernelResult hrv = kernels::run_hrv_kernel(rr);
  EXPECT_GT(hrv.static_min_cycles, 0u);
  EXPECT_LE(hrv.static_min_cycles, hrv.cycles);
  EXPECT_NE(hrv.static_max_cycles, kUnboundedCycles);
  EXPECT_GE(hrv.static_max_cycles, hrv.cycles);
  EXPECT_EQ(hrv.static_stack_bytes, 0u);

  std::vector<std::int32_t> gsr(256);
  std::int32_t level = 2 << 8;
  for (std::int32_t& v : gsr) {
    level += static_cast<std::int32_t>(rng.uniform(-8.0, 10.0));
    v = level;
  }
  const kernels::GsrKernelResult g = kernels::run_gsr_kernel(gsr);
  EXPECT_GT(g.static_min_cycles, 0u);
  EXPECT_LE(g.static_min_cycles, g.cycles);
  EXPECT_NE(g.static_max_cycles, kUnboundedCycles);
  EXPECT_GE(g.static_max_cycles, g.cycles);
  EXPECT_EQ(g.static_stack_bytes, 0u);
}

// ---------------------------------------------------------------------------
// The Machine verify_on_load gate.

TEST(Analysis, VerifyOnLoadRejectsXpulpImageOnIbex) {
  install_load_verifier();
  const asmx::Program p = asmx::assemble(R"(
main:
    p.mac a2, a0, a1
    ecall
)");
  Machine machine(ibex(), kMem);
  machine.load_program(std::span<const std::uint32_t>(p.words));
  machine.set_verify_on_load(true);
  try {
    machine.run(p.symbol("main"));
    FAIL() << "verify_on_load should have rejected the image";
  } catch (const iw::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("verify_on_load"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unsupported-instruction"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pc=0x"), std::string::npos) << msg;
  }
}

TEST(Analysis, VerifyOnLoadPassesCleanImage) {
  install_load_verifier();
  const asmx::Program p = asmx::assemble(R"(
main:
    lp.setupi 0, 4, loop_end
    addi a0, a0, 1
loop_end:
    ecall
)");
  Machine machine(ri5cy(), kMem);
  machine.load_program(std::span<const std::uint32_t>(p.words));
  machine.set_verify_on_load(true);
  const RunResult r = machine.run(p.symbol("main"));
  EXPECT_GT(r.cycles, 0u);
}

TEST(Analysis, VerifyOrThrowSummarizesEveryError) {
  // Two unsupported ops on separately reachable paths (an unsupported word
  // truncates its own path, so they must not be consecutive).
  const asmx::Program p = asmx::assemble(R"(
main:
    beq  a0, a1, other
    p.mac a2, a0, a1
    ecall
other:
    pv.sdotsp.h a0, a1, a2
    ecall
)");
  Memory mem(kMem);
  mem.write_words(p.base, std::span<const std::uint32_t>(p.words));
  try {
    verify_or_throw(mem, p.symbol("main"), ibex());
    FAIL() << "expected verify_or_throw to reject";
  } catch (const iw::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("verify_on_load[ibex]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2 static diagnostic"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace iw::rv::analysis
