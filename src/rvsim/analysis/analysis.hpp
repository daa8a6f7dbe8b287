// Static analysis of rvsim program images (`iw_lint`'s engine).
//
// Every ISA-legality, loop-nesting, and jump-target error in a kernel used to
// surface only *dynamically*, when Core::step happened to execute the
// offending word. This analyzer makes the same classes of error a load-time
// diagnostic: it consumes a loaded Memory image plus an entry point through
// the existing DecodeCache/predecode layer and produces a structured
// AnalysisReport with
//
//  * the recovered control-flow graph (basic blocks; direct branches, jumps,
//    hardware-loop back edges and fallthroughs; indirect jumps conservatively
//    flagged and treated as CFG sinks),
//  * an interprocedural call graph: `jal` with a link register is a call
//    whose fallthrough is the continuation, `jalr x0, ra, 0` is a return
//    (a function sink, not an unknown indirect), and recursion is detected
//    and reported (recursive functions get unbounded worst-case bounds),
//  * per-profile ISA lint: every reachable word is checked against the
//    TimingProfile's resolved support table, so e.g. an Xpulp op in an
//    IBEX-profile image is reported with its address and disassembly using
//    the exact message the dynamic path would throw,
//  * hardware-loop well-formedness (<= 2 nesting levels, end > start, proper
//    nesting, no branch into/out of a loop body, no lp.setup* as the last
//    body instruction),
//  * branch/jump target validity (in-image, word-aligned),
//  * out-of-image or misaligned memory accesses whose address is statically
//    known (block-local constant propagation over lui/auipc/addi/add chains),
//  * per-basic-block guaranteed cycle costs and a whole-program static cycle
//    lower bound (see below), asserted <= the dynamic count in tests,
//  * per-basic-block worst-case cycle costs and a whole-program static cycle
//    upper bound (WCET), asserted >= the dynamic count in tests,
//  * a static maximum stack depth per function, composed over the call
//    graph, with statically-provable overflow reported as an error.
//
// Cycle-bound semantics (floor): a block's `min_cycles` sums the per-profile
// base costs plus only those dynamic penalties that are *guaranteed* to occur
// (intra-block load-use stalls on a proven dependency; back-to-back-load
// extras when positive and proven, pessimistically applied to every load when
// negative, as on the Cortex-M4F where pipelined loads get a discount). Taken
// -branch refill penalties, bank conflicts and barrier waits are excluded —
// they only ever add cycles. The whole-program bound is the cheapest
// entry-to-halt path through the CFG (call blocks charge the callee's own
// floor), with well-formed hardware loops whose iteration count is statically
// known (an lp.setupi immediate, or an lp.setup count register proven by the
// block-local constprop) charged (count - 1) * (cheapest body iteration) on
// their setup block, innermost first. Every component is a lower bound on
// what any execution pays, so the total is too.
//
// Cycle-bound semantics (ceiling / WCET): a block's `max_cycles` is the
// max-penalty dual — every load pessimistically pays the load-use stall of
// its dependent successor and any positive back-to-back extra, every
// conditional branch pays the taken-branch penalty, and under a cluster
// analysis (AnalyzeOptions::cluster_cores > 1) every memory access pays the
// worst bank-conflict stall (cores - 1; the arbiter serves one conflicting
// access per cycle) and every store pays the barrier wakeup latency. The
// whole-program bound is the *longest* entry-to-sink path over the
// back-edge-free CFG, with every loop charged (bound - 1) extra copies of
// its longest single iteration, innermost first, and composed bottom-up over
// the call graph. Loop bounds come from lp.setupi immediates, constprop-known
// lp.setup counts, a monotone-counter pattern match (a countdown `addi`/
// `srli` that is the sole writer of the branch register), or trusted
// flow-fact annotations (AnalyzeOptions::loop_bounds). A loop with no bound,
// an unknown indirect jump, or recursion makes the bound kUnboundedCycles —
// still sound, never silently finite. For cluster images the bound assumes
// the SPMD model the kernels use (every core runs the same image from the
// same entry; barriers release at the latest arrival plus the wakeup
// latency) and does not model DMA (the reference kernels do not use it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rvsim/isa.hpp"
#include "rvsim/memory.hpp"
#include "rvsim/timing.hpp"
#include "rvsim/trace.hpp"

namespace iw::rv::analysis {

using iw::rv::CodeCertificate;

/// Sentinel for "no finite static bound" (unbounded loop, recursion, unknown
/// indirect control flow, or an unknowable stack pointer).
inline constexpr std::uint64_t kUnboundedCycles = ~std::uint64_t{0};

/// Diagnostic catalogue. Every kind is an error except the notes:
/// kIndirectJump (upgradable via AnalyzeOptions), kRecursiveCall,
/// kUnboundedLoop and kUnknownStackPointer, which only widen the static
/// bounds to kUnboundedCycles instead of failing the report.
enum class DiagKind : std::uint8_t {
  kIllegalWord,            // reachable word does not decode
  kUnsupportedInstruction, // decodes, but the profile cannot execute it
  kTargetOutOfImage,       // branch/jump/fallthrough leaves the image
  kTargetMisaligned,       // branch/jump target not word-aligned
  kHwloopBadBounds,        // end <= start, or body extends past the image
  kHwloopTooDeep,          // more than two nesting levels
  kHwloopOverlap,          // partial overlap / same loop index re-armed / shared end
  kHwloopBranchIn,         // branch from outside into a loop body
  kHwloopBranchOut,        // branch from a loop body to outside
  kHwloopBadLastInstruction, // lp.setup* as the last body instruction
  kStaticAccessOutOfImage, // statically-known data address out of image
  kStaticAccessMisaligned, // statically-known data address misaligned
  kIndirectJump,           // jalr: target unknown, CFG truncated here
  kRecursiveCall,          // function can re-enter itself: WCET/stack unbounded
  kUnboundedLoop,          // no static iteration bound for this loop
  kStackOverflow,          // provable max stack depth exceeds the stack limit
  kUnknownStackPointer,    // sp escapes the tracked adjustment idioms
};

enum class Severity : std::uint8_t { kError, kNote };

/// Stable lower-case identifier for a diagnostic kind ("illegal-word", ...).
const char* diag_kind_name(DiagKind kind);

struct Diagnostic {
  DiagKind kind = DiagKind::kIllegalWord;
  Severity severity = Severity::kError;
  std::uint32_t pc = 0;
  std::string message;  // includes the pc and disassembly where available
};

struct BasicBlock {
  std::uint32_t start = 0;
  std::uint32_t end = 0;  // exclusive
  /// Successor block start addresses (fallthrough, branch targets, hwloop
  /// back edges; a call block's successor is its continuation). Empty for
  /// halting / returning / indirect / dead-end blocks.
  std::vector<std::uint32_t> successors;
  /// Guaranteed cycles for one execution of the block (plus any hardware-loop
  /// surcharge attached to a contained lp.setup*, see file comment).
  std::uint64_t min_cycles = 0;
  /// Worst-case cycles for one execution of the block (max-penalty dual;
  /// loop surcharges are applied during per-function composition, not here).
  std::uint64_t max_cycles = 0;
  bool halts = false;         // contains ecall
  bool has_indirect = false;  // ends in a non-return jalr
  bool is_return = false;     // ends in `jalr x0, ra, 0` (function sink)
  bool has_call = false;      // ends in `jal` with a link register
  std::uint32_t call_target = 0;  // valid when has_call
};

struct HwLoopRegion {
  std::uint32_t setup_pc = 0;
  std::uint32_t start = 0;  // first body instruction (setup_pc + 4)
  std::uint32_t end = 0;    // exclusive body end (the hwloop back-edge pc)
  int index = 0;            // hardware loop slot (0 or 1)
  /// Guaranteed iteration count: the lp.setupi immediate (clamped to >= 1,
  /// matching Core), a constprop-proven lp.setup register count, or 1.
  std::uint32_t static_count = 1;
  /// Exact iteration count when statically known (lp.setupi immediate or a
  /// constprop-proven lp.setup count), else 0 (unknown: the WCET pass falls
  /// back to AnalyzeOptions::loop_bounds annotations).
  std::uint32_t exact_count = 0;
  bool well_formed = true;
};

/// Per-function summary of the interprocedural composition.
struct FunctionSummary {
  std::uint32_t entry = 0;
  std::uint64_t min_cycles = 0;
  /// Worst-case cycles from entry to any return/halt, callees included.
  std::uint64_t max_cycles = kUnboundedCycles;
  /// Maximum stack depth in bytes, callees included (kUnboundedCycles when
  /// the stack pointer escapes the tracked idioms or the function recurses).
  std::uint64_t stack_bytes = 0;
  bool recursive = false;
};

struct AnalysisReport {
  std::string profile_name;
  std::uint32_t entry = 0;
  std::size_t words_analyzed = 0;  // reachable instruction words
  std::vector<BasicBlock> blocks;  // sorted by start address
  std::vector<HwLoopRegion> loops; // sorted by setup pc
  std::vector<FunctionSummary> functions;  // sorted by entry address
  std::vector<Diagnostic> diagnostics;
  /// Whole-program static cycle lower bound from entry to the cheapest halt
  /// (or CFG sink). Always <= the dynamic cycle count of any core run from
  /// `entry` on a diagnostic-free image.
  std::uint64_t min_cycles = 0;
  /// Whole-program static cycle upper bound (WCET) from entry until the
  /// entry function halts or returns, or kUnboundedCycles when no sound
  /// finite bound exists. Always >= the dynamic cycle count of any core run
  /// from `entry` on a diagnostic-free image that halts.
  std::uint64_t max_cycles = kUnboundedCycles;
  /// Static maximum stack depth of the entry function in bytes, callees
  /// included (kUnboundedCycles when unknown).
  std::uint64_t stack_bytes = 0;

  std::size_t error_count() const;
  /// True when no error-severity diagnostics were produced.
  bool ok() const { return error_count() == 0; }

  /// Human-readable report (diagnostics, CFG summary, cycle bounds).
  std::string to_text() const;
  /// Machine-readable report (stable keys; one object, no trailing newline).
  std::string to_json() const;
};

struct AnalyzeOptions {
  /// Report jalr as an error instead of a note.
  bool indirect_jump_is_error = false;
  /// Safety cap on reachable instruction words.
  std::size_t max_words = 1u << 20;
  /// Trusted flow facts: maximum iteration count per loop, keyed by the loop
  /// head pc, the tail branch pc, or (hardware loops) the setup pc or end pc.
  /// Only ever used for the upper bound — the floor stays annotation-free.
  std::map<std::uint32_t, std::uint64_t> loop_bounds;
  /// Cluster pessimism for the WCET: when > 1, every memory access is
  /// charged the worst bank-conflict stall (cluster_cores - 1) and every
  /// store the barrier wakeup latency.
  int cluster_cores = 1;
  int barrier_wakeup_cycles = 6;
  /// When > 0, a provable entry-function stack depth above this limit is a
  /// kStackOverflow error.
  std::uint64_t stack_limit_bytes = 0;
};

/// Statically analyzes the program in `mem` reachable from `entry` under
/// `profile`. `mem` is taken non-const because the decode cache registers a
/// (removed-on-exit) write observer; the image itself is not modified.
AnalysisReport analyze(Memory& mem, std::uint32_t entry,
                       const TimingProfile& profile,
                       const AnalyzeOptions& options = {});

/// Runs analyze() and throws iw::Error summarizing every error diagnostic if
/// the report is not ok(). Uncached; the verify_on_load hook that
/// install_load_verifier() installs answers through load_analysis() instead.
void verify_or_throw(Memory& mem, std::uint32_t entry,
                     const TimingProfile& profile);

/// Trace-compiler adapter: analyzes from `entry` and condenses the report
/// into the CodeCertificate the superblock compiler consumes (merged code
/// ranges + statically known hardware-loop end pcs). Not-ok on any error
/// diagnostic or analysis failure, which disables trace compilation for the
/// image. Uncached, like verify_or_throw.
CodeCertificate certify(Memory& mem, std::uint32_t entry,
                        const TimingProfile& profile);

// --- load-analysis cache ---------------------------------------------------
//
// Every gated Machine/Cluster run asks the same question twice (the
// verify_on_load gate, then trace certification), and a kernel runner asks it
// again for every call on the same image. The process-wide load-analysis
// cache answers both hooks from one analyze() run per distinct image. Its key
// is exactly what a default-options analysis reads: the TimingProfile (by
// value), the entry pc, mem.size() and the bytes of every instruction word
// the analyzer decoded. Those inputs determine the whole report, so a hit
// returns what a fresh analysis would; data words (weights, inputs) are not
// part of the key, and a change to any decoded word misses. Only accepted
// images are kept: a rejected image is analyzed again on every load and
// throws the verify_or_throw diagnostics. The cache is mutex-guarded and
// holds at most kLoadCacheCapacity images, evicting the least recently used.

/// One accepted load analysis, as the cache keeps it.
struct LoadAnalysis {
  /// What certify() returns for the image.
  CodeCertificate certificate;
  /// Merged, sorted, disjoint [start, end) byte ranges of every instruction
  /// word the analyzer decoded (the code part of the cache key).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> code;
};

inline constexpr std::size_t kLoadCacheCapacity = 64;

/// The accepted default-options analysis of the image in `mem` from `entry`
/// under `profile`: the cached one on a hit, else the result of one analyze()
/// run, which is kept. Throws exactly what verify_or_throw throws when the
/// image is rejected (and keeps nothing).
std::shared_ptr<const LoadAnalysis> load_analysis(Memory& mem, std::uint32_t entry,
                                                  const TimingProfile& profile);

struct LoadCacheStats {
  std::uint64_t hits = 0;    // load_analysis() calls answered from the cache
  std::uint64_t misses = 0;  // load_analysis() calls that ran the analyzer
  std::size_t entries = 0;   // images kept (<= kLoadCacheCapacity)
  /// analyze() runs in this process, from any caller, since the last clear.
  std::uint64_t analyses = 0;
};
LoadCacheStats load_cache_stats();
/// Drops every kept image and zeroes the counters.
void clear_load_cache();

/// Installs the global rv::Machine / rv::Cluster verify_on_load hook and the
/// trace-compiler analyzer hook (idempotent). Both answer through
/// load_analysis(): the gate throws on a rejected image, certification
/// returns the cached certificate (not-ok when rejected).
void install_load_verifier();

}  // namespace iw::rv::analysis
