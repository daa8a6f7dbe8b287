#include "rvsim/analysis/analysis.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <iomanip>
#include <limits>
#include <list>
#include <map>
#include <mutex>
#include <queue>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "rvsim/predecode.hpp"
#include "rvsim/trace.hpp"
#include "rvsim/verify_hook.hpp"

namespace iw::rv::analysis {

namespace {

constexpr std::uint64_t kInf = kUnboundedCycles;

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  if (a == kInf || b == kInf) return kInf;
  return (a > kInf - b) ? kInf : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kInf || b == kInf) return kInf;
  return (a > kInf / b) ? kInf : a * b;
}

std::string hex32(std::uint32_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(8) << std::setfill('0') << v;
  return os.str();
}

/// Per-instruction record kept for every reachable word. A thinned DecodedEx
/// plus an explicit illegal state (DecodeCache throws instead of caching
/// those, but the analyzer must keep going to report the rest of the image).
struct Instr {
  enum Status : std::uint8_t { kOk, kUnsupported, kIllegal };
  Decoded d;
  Status status = kOk;
  std::int16_t base_cost = 0;
  bool is_load = false;
  std::int16_t load_seq_extra = 0;
  std::int16_t load_dest = -1;
  std::int16_t reads[3] = {-1, -1, -1};
};

bool is_cond_branch(Op op) {
  switch (op) {
    case Op::kBeq: case Op::kBne: case Op::kBlt:
    case Op::kBge: case Op::kBltu: case Op::kBgeu:
      return true;
    default:
      return false;
  }
}

bool is_hwloop_setup(Op op) { return op == Op::kLpSetup || op == Op::kLpSetupi; }

bool is_store(Op op) {
  switch (op) {
    case Op::kSb: case Op::kSh: case Op::kSw: case Op::kFsw:
    case Op::kPSbPost: case Op::kPShPost: case Op::kPSwPost:
      return true;
    default:
      return false;
  }
}

/// Static control-flow successors of one instruction, before hardware-loop
/// back edges are layered on. `terminates` means the instruction ends its
/// basic block even when the next word is not a leader. A `jal` with a link
/// register is a call: its CFG successor is the continuation (pc + 4) and the
/// callee entry is reported separately. `jalr x0, ra, 0` is a return — a
/// function sink, not an unknown indirect jump.
struct Flow {
  std::uint32_t targets[2] = {0, 0};
  int count = 0;
  bool terminates = false;
  bool halts = false;
  bool indirect = false;
  bool call = false;
  bool is_return = false;
  std::uint32_t call_target = 0;
};

Flow flow_of(std::uint32_t pc, const Instr& in) {
  Flow f;
  if (in.status != Instr::kOk) {
    f.terminates = true;  // execution faults here
    return f;
  }
  if (is_cond_branch(in.d.op)) {
    f.targets[f.count++] = pc + 4u;
    f.targets[f.count++] = pc + static_cast<std::uint32_t>(in.d.imm);
    f.terminates = true;
  } else if (in.d.op == Op::kJal) {
    if (in.d.rd != 0) {
      f.call = true;
      f.call_target = pc + static_cast<std::uint32_t>(in.d.imm);
      f.targets[f.count++] = pc + 4u;  // continuation after the callee returns
    } else {
      f.targets[f.count++] = pc + static_cast<std::uint32_t>(in.d.imm);
    }
    f.terminates = true;
  } else if (in.d.op == Op::kJalr) {
    f.terminates = true;
    if (in.d.rd == 0 && in.d.rs1 == 1 && in.d.imm == 0) {
      f.is_return = true;  // `ret`: sink of the enclosing function
    } else {
      f.indirect = true;  // genuinely unknown target
    }
  } else if (in.d.op == Op::kEcall) {
    f.terminates = true;
    f.halts = true;
  } else {
    f.targets[f.count++] = pc + 4u;
  }
  return f;
}

/// Memory footprint of one instruction when its address is statically known:
/// access size in bytes (0 = no plain data access we check).
std::uint32_t access_size(Op op) {
  switch (op) {
    case Op::kLw: case Op::kSw: case Op::kFlw: case Op::kFsw:
    case Op::kPLwPost: case Op::kPSwPost:
      return 4;
    case Op::kLh: case Op::kLhu: case Op::kSh:
    case Op::kPLhPost: case Op::kPShPost:
      return 2;
    case Op::kLb: case Op::kLbu: case Op::kSb:
    case Op::kPLbPost: case Op::kPSbPost:
      return 1;
    default:
      return 0;
  }
}

bool is_postinc(Op op) {
  switch (op) {
    case Op::kPLbPost: case Op::kPLhPost: case Op::kPLwPost:
    case Op::kPSbPost: case Op::kPShPost: case Op::kPSwPost:
      return true;
    default:
      return false;
  }
}

/// Block-local constant propagation state: which integer registers hold a
/// statically known value. x0 is always known to be zero.
struct ConstState {
  std::uint32_t value[32] = {};
  std::uint32_t known = 1;  // bit i -> x[i] known; bit 0 (x0) always set

  bool is_known(std::uint8_t r) const { return (known >> r) & 1u; }
  void set(std::uint8_t r, std::uint32_t v) {
    if (r == 0) return;
    value[r] = v;
    known |= (1u << r);
  }
  void kill(std::uint8_t r) {
    if (r == 0) return;
    known &= ~(1u << r);
  }
};

/// A function recovered from the call graph: the blocks reachable from its
/// entry through plain CFG edges (calls do not cross into callees).
struct FuncInfo {
  std::uint32_t entry = 0;
  std::set<std::uint32_t> blocks;          // block start addresses
  std::vector<std::uint32_t> callees;      // deduplicated valid call targets
  bool has_indirect = false;
  bool recursive = false;
  std::uint64_t min = 0;
  std::uint64_t max = kInf;
  std::uint64_t stack = 0;
};

struct Analyzer {
  Memory& mem;
  const TimingProfile& profile;
  const AnalyzeOptions& options;
  AnalysisReport report;

  std::map<std::uint32_t, Instr> instrs;  // reachable pc -> record
  std::vector<HwLoopRegion> regions;
  std::map<std::uint32_t, ConstState> exit_consts;  // block start -> exit state
  std::map<std::uint32_t, FuncInfo> funcs;          // entry -> function
  std::set<std::uint32_t> done;                     // composed functions
  std::set<std::uint32_t> unbounded_noted;          // loop pcs already noted
  std::set<std::uint32_t> stack_noted;              // pcs already noted

  Analyzer(Memory& m, std::uint32_t entry, const TimingProfile& p,
           const AnalyzeOptions& o)
      : mem(m), profile(p), options(o) {
    report.profile_name = profile.name;
    report.entry = entry;
  }

  void diag(DiagKind kind, Severity sev, std::uint32_t pc, std::string message) {
    report.diagnostics.push_back(Diagnostic{kind, sev, pc, std::move(message)});
  }

  bool target_ok(std::uint32_t from, std::uint32_t target, const char* what) {
    if ((target & 3u) != 0) {
      diag(DiagKind::kTargetMisaligned, Severity::kError, from,
           "pc=" + hex32(from) + ": " + what + " target " + hex32(target) +
               " is not word-aligned");
      return false;
    }
    if (static_cast<std::uint64_t>(target) + 4 > mem.size()) {
      diag(DiagKind::kTargetOutOfImage, Severity::kError, from,
           "pc=" + hex32(from) + ": " + what + " target " + hex32(target) +
               " is outside the " + std::to_string(mem.size()) + "-byte image");
      return false;
    }
    return true;
  }

  // --- pass 1: reachability + per-instruction lint -----------------------

  void scan(std::uint32_t entry) {
    if (!target_ok(entry, entry, "entry")) return;

    // A scratch DecodeCache gives us exactly the interpreter's view of every
    // word (decode + per-profile support/cost tables) without re-deriving it.
    DecodeCache cache(profile, mem);

    std::deque<std::uint32_t> worklist{entry};
    std::set<std::uint32_t> queued{entry};
    while (!worklist.empty()) {
      const std::uint32_t pc = worklist.front();
      worklist.pop_front();
      if (instrs.size() >= options.max_words) {
        fail("analysis: reachable code exceeds max_words");
      }

      Instr in;
      bool decoded = true;
      try {
        const DecodedEx& e = cache.entry(pc);
        in.d = e.d;
        if (e.status == DecodeCache::kUnsupported) {
          in.status = Instr::kUnsupported;
          diag(DiagKind::kUnsupportedInstruction, Severity::kError, pc,
               unsupported_instruction_message(profile.name, pc, e.d));
        } else {
          in.base_cost = e.base_cost;
          in.is_load = e.is_load;
          in.load_seq_extra = e.load_seq_extra;
          in.load_dest = e.load_dest;
          for (int k = 0; k < 3; ++k) in.reads[k] = e.reads[k];
        }
      } catch (const Error& err) {
        decoded = false;
        in.status = Instr::kIllegal;
        diag(DiagKind::kIllegalWord, Severity::kError, pc,
             "pc=" + hex32(pc) + ": illegal instruction word " +
                 hex32(mem.load32(pc)) + " (" + err.what() + ")");
      }

      if (decoded && in.status == Instr::kOk && is_hwloop_setup(in.d.op)) {
        HwLoopRegion r;
        r.setup_pc = pc;
        r.start = pc + 4u;
        r.end = pc + static_cast<std::uint32_t>(in.d.imm2) * 4u;
        r.index = static_cast<int>(in.d.extra & 1u);
        r.static_count =
            (in.d.op == Op::kLpSetupi && in.d.imm > 1)
                ? static_cast<std::uint32_t>(in.d.imm)
                : 1u;  // lp.setup counts from a register: >= 1, else unknown
        // lp.setupi is exact (an immediate count of 0 never arms the loop, so
        // the body still runs once — matching Core). lp.setup may still be
        // proven exact by the block-local constprop in analyze_blocks.
        if (in.d.op == Op::kLpSetupi) {
          r.exact_count = in.d.imm > 1 ? static_cast<std::uint32_t>(in.d.imm) : 1u;
        }
        regions.push_back(r);
      }

      const Flow f = flow_of(pc, in);

      if (decoded && in.status == Instr::kOk && f.indirect) {
        diag(DiagKind::kIndirectJump,
             options.indirect_jump_is_error ? Severity::kError : Severity::kNote,
             pc,
             "pc=" + hex32(pc) + ": indirect jump (" + to_string(in.d) +
                 "); control flow past this point is not analyzed");
      }

      if (f.call && target_ok(pc, f.call_target, "call")) {
        if (queued.insert(f.call_target).second) worklist.push_back(f.call_target);
      }
      for (int k = 0; k < f.count; ++k) {
        const std::uint32_t t = f.targets[k];
        const char* what;
        if (is_cond_branch(in.d.op)) {
          what = (t == pc + 4u) ? "fallthrough" : "branch";
        } else if (f.call || !f.terminates) {
          what = "fallthrough";
        } else {
          what = "jump";
        }
        if (!target_ok(pc, t, what)) continue;
        if (queued.insert(t).second) worklist.push_back(t);
      }

      instrs.emplace(pc, in);
    }
    report.words_analyzed = instrs.size();
  }

  // --- pass 2: hardware-loop well-formedness ----------------------------

  void check_hwloops() {
    // Bounds first; everything else only applies to regions with sane bounds.
    for (HwLoopRegion& r : regions) {
      if (r.end <= r.start || static_cast<std::uint64_t>(r.end) > mem.size()) {
        r.well_formed = false;
        diag(DiagKind::kHwloopBadBounds, Severity::kError, r.setup_pc,
             "pc=" + hex32(r.setup_pc) + ": hardware loop body [" +
                 hex32(r.start) + ", " + hex32(r.end) +
                 ") is empty, inverted, or outside the image");
      }
    }

    // Pairwise structure: partial overlap, same-slot nesting, depth.
    for (std::size_t i = 0; i < regions.size(); ++i) {
      HwLoopRegion& a = regions[i];
      if (!a.well_formed) continue;
      int enclosing = 0;
      for (std::size_t j = 0; j < regions.size(); ++j) {
        if (i == j) continue;
        const HwLoopRegion& b = regions[j];
        if (!b.well_formed) continue;
        const bool a_in_b = b.start <= a.start && a.end <= b.end;
        const bool b_in_a = a.start <= b.start && b.end <= a.end;
        const bool disjoint = a.end <= b.start || b.end <= a.start;
        if (!a_in_b && !b_in_a && !disjoint && i < j) {
          a.well_formed = false;
          diag(DiagKind::kHwloopOverlap, Severity::kError, a.setup_pc,
               "pc=" + hex32(a.setup_pc) + ": hardware loop body [" +
                   hex32(a.start) + ", " + hex32(a.end) +
                   ") partially overlaps the loop at pc=" + hex32(b.setup_pc));
        }
        if (a_in_b && !b_in_a && a.index == b.index) {
          a.well_formed = false;
          diag(DiagKind::kHwloopOverlap, Severity::kError, a.setup_pc,
               "pc=" + hex32(a.setup_pc) + ": nested hardware loop re-arms slot " +
                   std::to_string(a.index) + " already used by the loop at pc=" +
                   hex32(b.setup_pc));
        }
        if (a_in_b && !b_in_a) ++enclosing;
      }
      if (enclosing >= 2) {
        a.well_formed = false;
        diag(DiagKind::kHwloopTooDeep, Severity::kError, a.setup_pc,
             "pc=" + hex32(a.setup_pc) + ": hardware loop nested " +
                 std::to_string(enclosing + 1) +
                 " deep (the core has two loop slots)");
      }
    }

    // Last body instruction must not be another lp.setup*.
    for (HwLoopRegion& r : regions) {
      if (!r.well_formed) continue;
      const auto it = instrs.find(r.end - 4u);
      if (it != instrs.end() && it->second.status == Instr::kOk &&
          is_hwloop_setup(it->second.d.op)) {
        r.well_formed = false;
        diag(DiagKind::kHwloopBadLastInstruction, Severity::kError, r.end - 4u,
             "pc=" + hex32(r.end - 4u) + ": " + mnemonic(it->second.d.op) +
                 " is the last instruction of the hardware loop at pc=" +
                 hex32(r.setup_pc));
      }
    }

    // No branch into or out of a loop body. A branch to the body's end
    // address from inside acts as a "continue" (the back edge fires there)
    // and is allowed. `jal` covers both plain jumps and calls: a call from a
    // body to an outside function is just as incompatible with the hardware
    // loop state as a jump.
    for (const auto& [pc, in] : instrs) {
      if (in.status != Instr::kOk) continue;
      if (!is_cond_branch(in.d.op) && in.d.op != Op::kJal) continue;
      const std::uint32_t t = pc + static_cast<std::uint32_t>(in.d.imm);
      for (HwLoopRegion& r : regions) {
        if (r.end <= r.start) continue;  // bounds already diagnosed
        const bool from_inside = pc >= r.start && pc < r.end;
        const bool to_inside = t >= r.start && t < r.end;
        if (from_inside && !to_inside && t != r.end) {
          r.well_formed = false;
          diag(DiagKind::kHwloopBranchOut, Severity::kError, pc,
               "pc=" + hex32(pc) + ": " + mnemonic(in.d.op) + " to " + hex32(t) +
                   " leaves the hardware loop body of pc=" + hex32(r.setup_pc));
        } else if (!from_inside && to_inside) {
          r.well_formed = false;
          diag(DiagKind::kHwloopBranchIn, Severity::kError, pc,
               "pc=" + hex32(pc) + ": " + mnemonic(in.d.op) + " to " + hex32(t) +
                   " jumps into the hardware loop body of pc=" + hex32(r.setup_pc));
        }
      }
    }

    std::sort(regions.begin(), regions.end(),
              [](const HwLoopRegion& a, const HwLoopRegion& b) {
                return a.setup_pc < b.setup_pc;
              });
  }

  // --- pass 3: basic blocks ---------------------------------------------

  /// Successors of the instruction at `pc` with hardware-loop back edges
  /// layered on: any edge that lands on a loop's end address may instead take
  /// the back edge to the loop start.
  std::vector<std::uint32_t> successors_of(std::uint32_t pc, const Instr& in) const {
    const Flow f = flow_of(pc, in);
    std::vector<std::uint32_t> out;
    for (int k = 0; k < f.count; ++k) {
      const std::uint32_t t = f.targets[k];
      if (instrs.count(t) == 0) continue;  // invalid target, already diagnosed
      if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
      for (const HwLoopRegion& r : regions) {
        if (t == r.end && instrs.count(r.start) != 0 &&
            std::find(out.begin(), out.end(), r.start) == out.end()) {
          out.push_back(r.start);
        }
      }
    }
    return out;
  }

  void build_blocks() {
    if (instrs.empty()) return;
    std::set<std::uint32_t> leaders;
    leaders.insert(report.entry);
    for (const auto& [pc, in] : instrs) {
      const Flow f = flow_of(pc, in);
      if (f.terminates) {
        for (int k = 0; k < f.count; ++k) leaders.insert(f.targets[k]);
        leaders.insert(pc + 4u);
      }
      if (f.call && instrs.count(f.call_target) != 0) {
        leaders.insert(f.call_target);
      }
    }
    for (const HwLoopRegion& r : regions) {
      leaders.insert(r.start);
      leaders.insert(r.end);
    }

    BasicBlock current;
    bool open = false;
    std::uint32_t prev_pc = 0;
    const auto close = [&](std::uint32_t end_pc) {
      current.end = end_pc + 4u;
      const auto it = instrs.find(end_pc);
      current.successors = successors_of(end_pc, it->second);
      const Flow f = flow_of(end_pc, it->second);
      current.halts = f.halts;
      current.has_indirect = f.indirect;
      current.is_return = f.is_return;
      current.has_call = f.call;
      current.call_target = f.call_target;
      report.blocks.push_back(current);
      open = false;
    };
    for (const auto& [pc, in] : instrs) {
      if (open && (pc != prev_pc + 4u || leaders.count(pc) != 0)) close(prev_pc);
      if (!open) {
        current = BasicBlock{};
        current.start = pc;
        open = true;
      }
      const Flow f = flow_of(pc, in);
      prev_pc = pc;
      if (f.terminates) close(pc);
    }
    if (open) close(prev_pc);
  }

  // --- pass 4: static data-access lint + per-block cycle bounds ---------

  void analyze_blocks() {
    for (BasicBlock& block : report.blocks) {
      ConstState consts;
      std::int64_t total = 0;
      std::int64_t total_max = 0;
      std::int16_t prev_load_dest = -1;
      bool prev_is_load = false;
      for (std::uint32_t pc = block.start; pc < block.end; pc += 4u) {
        const Instr& in = instrs.at(pc);
        if (in.status != Instr::kOk) break;  // faults here; no further cost

        // Guaranteed-cycle floor. Only penalties that *must* occur count:
        // a load-use stall on a proven in-block dependency, and the
        // back-to-back-load extra (for every load when it is a discount,
        // only on proven consecutive loads when it is a penalty). Taken
        // branches, bank conflicts and barrier waits are excluded.
        std::int64_t c = in.base_cost;
        if (prev_load_dest >= 0) {
          for (const std::int16_t r : in.reads) {
            if (r == prev_load_dest) {
              c += profile.load_use_stall;
              break;
            }
          }
        }
        if (in.is_load && in.load_seq_extra < 0) {
          c += in.load_seq_extra;
        } else if (prev_is_load && in.load_seq_extra > 0) {
          c += in.load_seq_extra;
        }
        total += c < 0 ? 0 : c;

        // Worst-case ceiling: the max-penalty dual. Every load pays the
        // load-use stall its dependent successor might incur (the pending
        // destination only lives one instruction, so one stall per load
        // bounds it) and any positive back-to-back extra; the sequential-
        // load *discount* is assumed never to apply. Conditional branches
        // pay the taken penalty. Under a cluster analysis every memory
        // access pays the worst bank-conflict stall (the arbiter serves one
        // conflicting access per cycle, so cores - 1 bounds it) and every
        // store the barrier wakeup latency (a barrier releases at the
        // latest arrival — itself covered by this bound on the common SPMD
        // image — plus the wakeup; charging it on the store closes the
        // induction). DMA is not modeled; the reference kernels do not use
        // it.
        std::int64_t cm = in.base_cost;
        if (in.is_load) cm += profile.load_use_stall;
        if (in.load_seq_extra > 0) cm += in.load_seq_extra;
        if (is_cond_branch(in.d.op)) cm += profile.branch_taken_extra;
        if (options.cluster_cores > 1) {
          if (access_size(in.d.op) != 0) cm += options.cluster_cores - 1;
          if (is_store(in.d.op)) cm += options.barrier_wakeup_cycles;
        }
        total_max += cm < 0 ? 0 : cm;

        prev_load_dest = in.load_dest;
        prev_is_load = in.is_load;

        // An lp.setup whose count register is statically known is exact:
        // Core arms the loop with max(count, 1) iterations. This tightens
        // both the guaranteed floor and the worst-case ceiling.
        if (in.d.op == Op::kLpSetup && consts.is_known(in.d.rs1)) {
          const std::uint32_t v = consts.value[in.d.rs1];
          for (HwLoopRegion& r : regions) {
            if (r.setup_pc != pc) continue;
            r.exact_count = v == 0 ? 1u : v;
            r.static_count = r.exact_count;
          }
        }

        lint_access(pc, in, consts);
        step_consts(pc, in, consts);
      }
      block.min_cycles = total < 0 ? 0u : static_cast<std::uint64_t>(total);
      block.max_cycles = total_max < 0 ? 0u : static_cast<std::uint64_t>(total_max);
      exit_consts.emplace(block.start, consts);
    }
  }

  void lint_access(std::uint32_t pc, const Instr& in, const ConstState& consts) {
    const std::uint32_t size = access_size(in.d.op);
    if (size == 0 || !consts.is_known(in.d.rs1)) return;
    const std::uint32_t addr =
        is_postinc(in.d.op)
            ? consts.value[in.d.rs1]
            : consts.value[in.d.rs1] + static_cast<std::uint32_t>(in.d.imm);
    if (static_cast<std::uint64_t>(addr) + size > mem.size()) {
      diag(DiagKind::kStaticAccessOutOfImage, Severity::kError, pc,
           "pc=" + hex32(pc) + ": " + to_string(in.d) + " accesses " +
               hex32(addr) + ", outside the " + std::to_string(mem.size()) +
               "-byte image");
    } else if (addr % size != 0) {
      diag(DiagKind::kStaticAccessMisaligned, Severity::kError, pc,
           "pc=" + hex32(pc) + ": " + to_string(in.d) + " accesses " +
               hex32(addr) + ", misaligned for a " + std::to_string(size) +
               "-byte access");
    }
  }

  /// Transfer function of the block-local constant propagation: tracks
  /// lui/auipc/addi/add chains (the address-materialization idiom, incl.
  /// the assembler's la/li expansions) and post-increment base updates;
  /// every other integer destination becomes unknown.
  void step_consts(std::uint32_t pc, const Instr& in, ConstState& consts) {
    const Decoded& d = in.d;
    switch (d.op) {
      case Op::kLui:
        consts.set(d.rd, static_cast<std::uint32_t>(d.imm) << 12);
        break;
      case Op::kAuipc:
        consts.set(d.rd, pc + (static_cast<std::uint32_t>(d.imm) << 12));
        break;
      case Op::kAddi:
        if (consts.is_known(d.rs1)) {
          consts.set(d.rd, consts.value[d.rs1] + static_cast<std::uint32_t>(d.imm));
        } else {
          consts.kill(d.rd);
        }
        break;
      case Op::kAdd:
        if (consts.is_known(d.rs1) && consts.is_known(d.rs2)) {
          consts.set(d.rd, consts.value[d.rs1] + consts.value[d.rs2]);
        } else {
          consts.kill(d.rd);
        }
        break;
      case Op::kPLbPost: case Op::kPLhPost: case Op::kPLwPost: {
        consts.kill(d.rd);  // loaded value unknown
        if (consts.is_known(d.rs1)) {
          consts.set(d.rs1, consts.value[d.rs1] + static_cast<std::uint32_t>(d.imm));
        }
        break;
      }
      case Op::kPSbPost: case Op::kPShPost: case Op::kPSwPost:
        if (consts.is_known(d.rs1)) {
          consts.set(d.rs1, consts.value[d.rs1] + static_cast<std::uint32_t>(d.imm));
        }
        break;
      // No integer destination: nothing to kill.
      case Op::kSb: case Op::kSh: case Op::kSw: case Op::kFsw:
      case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
      case Op::kBltu: case Op::kBgeu:
      case Op::kEcall: case Op::kLpSetup: case Op::kLpSetupi:
        break;
      default:
        // Anything else that writes an integer destination makes it unknown;
        // float-destination ops (flw, fmv.w.x, float arithmetic) leave the
        // integer file untouched even though their rd field aliases an x-reg
        // index.
        if (writes_int_rd(d.op)) consts.kill(d.rd);
        break;
    }
  }

  // --- block lookup helpers ---------------------------------------------

  std::size_t block_index_of(std::uint32_t pc) const {
    // Blocks are sorted by start; find the one containing pc.
    std::size_t lo = 0, hi = report.blocks.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (report.blocks[mid].end <= pc) lo = mid + 1;
      else hi = mid;
    }
    return lo;
  }

  /// Block whose start address is exactly `pc`, or nullptr.
  const BasicBlock* block_at(std::uint32_t pc) const {
    const std::size_t i = block_index_of(pc);
    if (i < report.blocks.size() && report.blocks[i].start == pc) {
      return &report.blocks[i];
    }
    return nullptr;
  }

  /// Block whose [start, end) range contains `pc`, or nullptr.
  const BasicBlock* block_containing(std::uint32_t pc) const {
    const std::size_t i = block_index_of(pc);
    if (i < report.blocks.size() && report.blocks[i].start <= pc &&
        pc < report.blocks[i].end) {
      return &report.blocks[i];
    }
    return nullptr;
  }

  // --- path extremes over the block graph -------------------------------

  /// Cheapest sum of block costs along any path from `from` to a block in
  /// `accept` (inclusive of both endpoint blocks), restricted to blocks whose
  /// start lies in [lo, hi) — kInf when unreachable. hi == 0 means no
  /// restriction. `filter`, when non-null, restricts traversal to that block
  /// set; `cost` supplies per-block costs (defaults to BasicBlock::min_cycles
  /// at every call site that passes it).
  std::uint64_t cheapest(std::uint32_t from, const std::set<std::uint32_t>& accept,
                         std::uint32_t lo, std::uint32_t hi,
                         const std::set<std::uint32_t>* filter,
                         const std::function<std::uint64_t(std::uint32_t)>& cost) const {
    std::map<std::uint32_t, std::uint64_t> dist;
    using Item = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    if (block_at(from) == nullptr) return kInf;
    dist[from] = cost(from);
    heap.emplace(dist[from], from);
    std::uint64_t best = kInf;
    while (!heap.empty()) {
      const auto [d, at] = heap.top();
      heap.pop();
      if (d != dist.at(at)) continue;
      if (accept.count(at) != 0) {
        best = std::min(best, d);
        continue;
      }
      const BasicBlock& b = report.blocks[block_index_of(at)];
      for (const std::uint32_t succ : b.successors) {
        if (hi != 0 && (succ < lo || succ >= hi)) continue;
        if (filter != nullptr && filter->count(succ) == 0) continue;
        if (block_at(succ) == nullptr) continue;
        const std::uint64_t nd = sat_add(d, cost(succ));
        const auto it = dist.find(succ);
        if (it == dist.end() || nd < it->second) {
          dist[succ] = nd;
          heap.emplace(nd, succ);
        }
      }
    }
    return best;
  }

  /// Longest-path distances (cost-inclusive at both endpoints) from `from`
  /// over *forward* edges only (successor start > block start — loop back
  /// edges are excluded, making the graph a DAG that address order
  /// topologically sorts). Same [lo, hi) / filter semantics as cheapest().
  std::map<std::uint32_t, std::uint64_t> longest(
      std::uint32_t from, std::uint32_t lo, std::uint32_t hi,
      const std::set<std::uint32_t>* filter,
      const std::function<std::uint64_t(std::uint32_t)>& cost) const {
    std::map<std::uint32_t, std::uint64_t> dist;
    if (block_at(from) == nullptr) return dist;
    dist[from] = cost(from);
    for (std::size_t i = block_index_of(from); i < report.blocks.size(); ++i) {
      const BasicBlock& b = report.blocks[i];
      const auto it = dist.find(b.start);
      if (it == dist.end()) continue;
      const std::uint64_t d = it->second;
      for (const std::uint32_t succ : b.successors) {
        if (succ <= b.start) continue;  // back edge: handled via loop bounds
        if (hi != 0 && (succ < lo || succ >= hi)) continue;
        if (filter != nullptr && filter->count(succ) == 0) continue;
        if (block_at(succ) == nullptr) continue;
        const std::uint64_t nd = sat_add(d, cost(succ));
        const auto [dit, inserted] = dist.emplace(succ, nd);
        if (!inserted && nd > dit->second) dit->second = nd;
      }
    }
    return dist;
  }

  bool body_is_clean(const HwLoopRegion& r) const {
    for (std::uint32_t pc = r.start; pc < r.end; pc += 4u) {
      const auto it = instrs.find(pc);
      if (it == instrs.end()) continue;  // dead space inside the body
      if (it->second.status != Instr::kOk) return false;
      if (it->second.d.op == Op::kEcall || it->second.d.op == Op::kJalr) return false;
    }
    return true;
  }

  // --- pass 5: function discovery + call graph --------------------------

  void discover_functions() {
    std::set<std::uint32_t> entries;
    if (block_at(report.entry) != nullptr) entries.insert(report.entry);
    for (const BasicBlock& b : report.blocks) {
      if (b.has_call && block_at(b.call_target) != nullptr) {
        entries.insert(b.call_target);
      }
    }
    for (const std::uint32_t e : entries) {
      FuncInfo f;
      f.entry = e;
      std::deque<std::uint32_t> work{e};
      f.blocks.insert(e);
      std::set<std::uint32_t> callees;
      while (!work.empty()) {
        const std::uint32_t s = work.front();
        work.pop_front();
        const BasicBlock& b = *block_at(s);
        if (b.has_indirect) f.has_indirect = true;
        if (b.has_call && block_at(b.call_target) != nullptr) {
          callees.insert(b.call_target);
        }
        for (const std::uint32_t succ : b.successors) {
          if (block_at(succ) == nullptr) continue;
          if (f.blocks.insert(succ).second) work.push_back(succ);
        }
      }
      f.callees.assign(callees.begin(), callees.end());
      funcs.emplace(e, std::move(f));
    }
  }

  /// Iterative Tarjan SCC over the call graph. SCCs pop in reverse
  /// topological order (callees before callers), which is exactly the
  /// bottom-up composition order; each popped component is composed
  /// immediately. Components of size > 1 and self-calling functions are
  /// recursive: unbounded worst-case cycles and stack.
  void compose_functions() {
    std::map<std::uint32_t, int> index, low;
    std::vector<std::uint32_t> stack;
    std::set<std::uint32_t> on_stack;
    int next = 0;

    struct Frame {
      std::uint32_t v;
      std::size_t child;
    };
    for (const auto& [root, unused] : funcs) {
      (void)unused;
      if (index.count(root) != 0) continue;
      std::vector<Frame> frames;
      frames.push_back(Frame{root, 0});
      index[root] = low[root] = next++;
      stack.push_back(root);
      on_stack.insert(root);
      while (!frames.empty()) {
        Frame& fr = frames.back();
        FuncInfo& fi = funcs.at(fr.v);
        if (fr.child < fi.callees.size()) {
          const std::uint32_t w = fi.callees[fr.child++];
          if (funcs.count(w) == 0) continue;
          if (index.count(w) == 0) {
            index[w] = low[w] = next++;
            stack.push_back(w);
            on_stack.insert(w);
            frames.push_back(Frame{w, 0});
          } else if (on_stack.count(w) != 0) {
            low[fr.v] = std::min(low[fr.v], index[w]);
          }
        } else {
          if (low[fr.v] == index[fr.v]) {
            std::vector<std::uint32_t> comp;
            for (;;) {
              const std::uint32_t w = stack.back();
              stack.pop_back();
              on_stack.erase(w);
              comp.push_back(w);
              if (w == fr.v) break;
            }
            compose_component(comp);
          }
          const std::uint32_t v = fr.v;
          frames.pop_back();
          if (!frames.empty()) {
            low[frames.back().v] = std::min(low[frames.back().v], low[v]);
          }
        }
      }
    }
  }

  void compose_component(const std::vector<std::uint32_t>& comp) {
    bool recursive = comp.size() > 1;
    if (!recursive) {
      const FuncInfo& f = funcs.at(comp.front());
      recursive = std::find(f.callees.begin(), f.callees.end(), f.entry) !=
                  f.callees.end();
    }
    for (const std::uint32_t v : comp) {
      FuncInfo& f = funcs.at(v);
      f.recursive = recursive;
      if (recursive) {
        diag(DiagKind::kRecursiveCall, Severity::kNote, v,
             "pc=" + hex32(v) +
                 ": function is recursive; worst-case cycle and stack bounds "
                 "are unbounded");
      }
    }
    for (const std::uint32_t v : comp) compose_function(funcs.at(v));
    for (const std::uint32_t v : comp) done.insert(v);
  }

  std::uint64_t callee_min(std::uint32_t t) const {
    const auto it = funcs.find(t);
    // Unknown or in-cycle callees contribute 0 — still a valid lower bound.
    return (it != funcs.end() && done.count(t) != 0) ? it->second.min : 0;
  }
  std::uint64_t callee_max(std::uint32_t t) const {
    const auto it = funcs.find(t);
    return (it != funcs.end() && done.count(t) != 0) ? it->second.max : kInf;
  }
  std::uint64_t callee_stack(std::uint32_t t) const {
    const auto it = funcs.find(t);
    return (it != funcs.end() && done.count(t) != 0) ? it->second.stack : kInf;
  }

  void compose_function(FuncInfo& f) {
    compute_function_min(f);
    f.max = compute_function_max(f);
    f.stack = compute_function_stack(f);
  }

  void compute_function_min(FuncInfo& f) {
    const auto min_cost = [&](std::uint32_t s) -> std::uint64_t {
      const BasicBlock& b = *block_at(s);
      std::uint64_t c = b.min_cycles;
      if (b.has_call) c = sat_add(c, callee_min(b.call_target));
      return c;
    };
    std::set<std::uint32_t> sinks;
    for (const std::uint32_t s : f.blocks) {
      if (block_at(s)->successors.empty()) sinks.insert(s);
    }
    std::uint64_t m = kInf;
    if (!sinks.empty()) m = cheapest(f.entry, sinks, 0, 0, &f.blocks, min_cost);
    if (m == kInf) {
      // No sink reachable (the function never returns or halts): the cost of
      // the entry block alone is still a valid floor.
      m = min_cost(f.entry);
    }
    f.min = m == kInf ? 0 : m;
  }

  void note_unbounded_loop(std::uint32_t pc) {
    if (!unbounded_noted.insert(pc).second) return;
    diag(DiagKind::kUnboundedLoop, Severity::kNote, pc,
         "pc=" + hex32(pc) +
             ": no static iteration bound for this loop; the worst-case "
             "cycle bound is unbounded");
  }

  /// Trusted flow-fact lookup: 0 when absent, else the annotated maximum
  /// iteration count clamped to >= 1 (a loop whose body executes at all
  /// executes it once).
  std::uint64_t annotation_at(std::uint32_t key_a, std::uint32_t key_b) const {
    auto it = options.loop_bounds.find(key_a);
    if (it == options.loop_bounds.end()) it = options.loop_bounds.find(key_b);
    if (it == options.loop_bounds.end()) return 0;
    return it->second == 0 ? 1 : it->second;
  }

  std::uint64_t hwloop_max_count(const HwLoopRegion& r) const {
    if (r.exact_count > 0) return r.exact_count;
    const std::uint64_t ann = annotation_at(r.setup_pc, r.end);
    return ann != 0 ? ann : kInf;
  }

  /// Maximum iteration count of a backward-branch loop with head block
  /// `head` and back-edge (tail) block `tail`, or kInf. Sources, in order:
  /// a trusted annotation (keyed by the head pc or the tail branch pc), then
  /// the monotone-counter pattern — the tail ends in `bne r, x0, head`
  /// (either operand zero), `r` has exactly one writer in the loop interval,
  /// that writer sits in the tail block (so it runs on every back edge), no
  /// call or indirect jump can clobber `r` inside the loop, and the writer
  /// is either a countdown `addi r, r, -k` whose initial value is proven by
  /// the unique outside predecessor's block-local constants (k must divide
  /// it — no wraparound), or a shift `srli r, r, k` (32 bits drain in at
  /// most 32/k + 2 body executions regardless of the initial value).
  std::uint64_t branch_loop_bound(const FuncInfo& f, std::uint32_t head,
                                  const BasicBlock& tail) const {
    const std::uint64_t ann = annotation_at(head, tail.end - 4u);
    if (ann != 0) return ann;

    const auto tit = instrs.find(tail.end - 4u);
    if (tit == instrs.end() || tit->second.status != Instr::kOk) return kInf;
    const Decoded& br = tit->second.d;
    if (br.op != Op::kBne) return kInf;
    if (tail.end - 4u + static_cast<std::uint32_t>(br.imm) != head) return kInf;
    std::uint8_t reg;
    if (br.rs2 == 0 && br.rs1 != 0) reg = br.rs1;
    else if (br.rs1 == 0 && br.rs2 != 0) reg = br.rs2;
    else return kInf;

    const Instr* writer = nullptr;
    std::uint32_t writer_pc = 0;
    for (std::uint32_t pc = head; pc < tail.end; pc += 4u) {
      const auto it = instrs.find(pc);
      if (it == instrs.end()) continue;  // dead space in the interval
      const Instr& in = it->second;
      if (in.status != Instr::kOk) return kInf;
      if (in.d.op == Op::kJalr) return kInf;
      if (in.d.op == Op::kJal && in.d.rd != 0) return kInf;  // call clobbers?
      const bool writes = (writes_int_rd(in.d.op) && in.d.rd == reg) ||
                          (is_postinc(in.d.op) && in.d.rs1 == reg);
      if (!writes) continue;
      if (writer != nullptr) return kInf;  // not a sole writer
      writer = &in;
      writer_pc = pc;
    }
    if (writer == nullptr) return kInf;
    if (writer_pc < tail.start || writer_pc >= tail.end) return kInf;

    const Decoded& w = writer->d;
    if (w.op == Op::kSrli && w.rd == reg && w.rs1 == reg) {
      const std::uint32_t k = static_cast<std::uint32_t>(w.imm) & 31u;
      if (k == 0) return kInf;
      return 32u / k + 2u;
    }
    if (w.op != Op::kAddi || w.rd != reg || w.rs1 != reg || w.imm >= 0) {
      return kInf;
    }
    const std::uint32_t k =
        static_cast<std::uint32_t>(-static_cast<std::int64_t>(w.imm));
    // Initial counter value: the unique predecessor outside the interval
    // must prove it block-locally.
    const BasicBlock* pred = nullptr;
    for (const std::uint32_t s : f.blocks) {
      if (s >= head && s < tail.end) continue;  // inside the loop
      const BasicBlock* pb = block_at(s);
      if (pb == nullptr) continue;
      if (std::find(pb->successors.begin(), pb->successors.end(), head) ==
          pb->successors.end()) {
        continue;
      }
      if (pred != nullptr) return kInf;  // multiple outside entries
      pred = pb;
    }
    if (pred == nullptr) return kInf;
    // A predecessor that ends in a call hands control to the callee before
    // the loop head; the callee may clobber the counter, so the caller's
    // exit constants cannot vouch for the initial value.
    if (pred->has_call) return kInf;
    const auto ec = exit_consts.find(pred->start);
    if (ec == exit_consts.end() || !ec->second.is_known(reg)) return kInf;
    const std::uint32_t v = ec->second.value[reg];
    if (v == 0 || v % k != 0) return kInf;
    return v / k;
  }

  // --- pass 6: per-function WCET ----------------------------------------

  std::uint64_t compute_function_max(FuncInfo& f) {
    if (f.recursive) return kInf;
    if (f.has_indirect) return kInf;  // unknown continuation somewhere inside

    std::map<std::uint32_t, std::uint64_t> extra;  // loop surcharges
    const auto max_cost = [&](std::uint32_t s) -> std::uint64_t {
      const BasicBlock& b = *block_at(s);
      std::uint64_t c = b.max_cycles;
      if (b.has_call) c = sat_add(c, callee_max(b.call_target));
      const auto it = extra.find(s);
      if (it != extra.end()) c = sat_add(c, it->second);
      return c;
    };

    // Collect loops: every back edge inside the function, classified as a
    // hardware loop (edge into a well-formed region's start from its last
    // block) or a backward-branch loop.
    struct LoopRec {
      std::uint32_t lo, hi;    // interval of block starts the loop spans
      std::uint32_t tail;      // block taking the back edge
      std::uint32_t charge;    // block the surcharge lands on
      std::uint64_t count;     // max body executions, or kInf
    };
    std::vector<LoopRec> loops;
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
    for (const std::uint32_t s : f.blocks) {
      const BasicBlock& b = *block_at(s);
      for (const std::uint32_t succ : b.successors) {
        if (succ > b.start) continue;  // forward edge
        if (f.blocks.count(succ) == 0) continue;
        LoopRec L{};
        const HwLoopRegion* hw = nullptr;
        for (const HwLoopRegion& r : regions) {
          if (r.well_formed && r.start == succ && r.end == b.end) {
            hw = &r;
            break;
          }
        }
        if (hw != nullptr && body_is_clean(*hw)) {
          L.lo = hw->start;
          L.hi = hw->end;
          L.tail = b.start;
          L.count = hwloop_max_count(*hw);
          const BasicBlock* sb = block_containing(hw->setup_pc);
          if (sb != nullptr && f.blocks.count(sb->start) != 0) {
            L.charge = sb->start;
          } else {
            L.charge = succ;
            L.count = kInf;  // setup unreachable within this function
          }
        } else if (hw != nullptr) {
          L.lo = hw->start;
          L.hi = hw->end;
          L.tail = b.start;
          L.charge = succ;
          L.count = kInf;  // dirty body: no static bound
        } else {
          L.lo = succ;
          L.hi = b.end;
          L.tail = b.start;
          L.charge = succ;
          L.count = branch_loop_bound(f, succ, b);
        }
        if (seen.insert({L.lo, L.hi, L.tail}).second) loops.push_back(L);
      }
    }

    // Partially overlapping intervals break the innermost-first charge
    // order; both become unbounded (conservative, and diagnosed).
    for (std::size_t i = 0; i < loops.size(); ++i) {
      for (std::size_t j = i + 1; j < loops.size(); ++j) {
        LoopRec& a = loops[i];
        LoopRec& b = loops[j];
        const bool nested = (a.lo <= b.lo && b.hi <= a.hi) ||
                            (b.lo <= a.lo && a.hi <= b.hi);
        const bool disjoint = a.hi <= b.lo || b.hi <= a.lo;
        if (!nested && !disjoint) a.count = b.count = kInf;
      }
    }

    std::sort(loops.begin(), loops.end(), [](const LoopRec& a, const LoopRec& b) {
      if (a.hi - a.lo != b.hi - b.lo) return a.hi - a.lo < b.hi - b.lo;
      return std::tie(a.lo, a.tail) < std::tie(b.lo, b.tail);
    });

    bool unbounded = false;
    for (const LoopRec& L : loops) {
      if (L.count == kInf) {
        note_unbounded_loop(L.lo);
        unbounded = true;
        continue;
      }
      if (L.count <= 1) continue;
      // Longest single iteration: head to back-edge block within the loop
      // interval. Inner surcharges are already in `extra`, so nested bounds
      // multiply as they do dynamically.
      const auto dist = longest(L.lo, L.lo, L.hi, &f.blocks, max_cost);
      const auto it = dist.find(L.tail);
      const std::uint64_t iter = it == dist.end() ? kInf : it->second;
      if (iter == kInf) {
        note_unbounded_loop(L.lo);
        unbounded = true;
        continue;
      }
      extra[L.charge] = sat_add(extra[L.charge], sat_mul(L.count - 1, iter));
    }
    if (unbounded) return kInf;

    const auto dist = longest(f.entry, 0, 0, &f.blocks, max_cost);
    std::uint64_t worst = 0;
    for (const auto& [s, d] : dist) {
      (void)s;
      worst = std::max(worst, d);
    }
    return worst;
  }

  // --- pass 7: per-function stack depth ---------------------------------

  void note_unknown_stack(std::uint32_t pc, const std::string& why) {
    if (!stack_noted.insert(pc).second) return;
    diag(DiagKind::kUnknownStackPointer, Severity::kNote, pc,
         "pc=" + hex32(pc) + ": " + why + "; the static stack bound is unknown");
  }

  /// Dataflow over the function's blocks: depth = (entry sp) - sp, tracked
  /// through `addi sp, sp, imm` and post-increment base updates on sp. Any
  /// other write to x2, a join with mismatched depths, a negative depth
  /// (popping above the entry frame), or an unbalanced return makes the
  /// bound unknown — composition at call sites assumes callees restore sp.
  std::uint64_t compute_function_stack(FuncInfo& f) {
    if (f.recursive) return kInf;
    std::map<std::uint32_t, std::int64_t> depth_in;
    std::deque<std::uint32_t> work{f.entry};
    depth_in[f.entry] = 0;
    std::uint64_t max_depth = 0;
    bool unknown = false;
    while (!work.empty() && !unknown) {
      const std::uint32_t s = work.front();
      work.pop_front();
      const BasicBlock& b = *block_at(s);
      std::int64_t depth = depth_in.at(s);
      for (std::uint32_t pc = b.start; pc < b.end && !unknown; pc += 4u) {
        const Instr& in = instrs.at(pc);
        if (in.status != Instr::kOk) break;
        const Decoded& d = in.d;
        bool adjusted = false;
        if (d.op == Op::kAddi && d.rd == 2) {
          if (d.rs1 != 2) {
            note_unknown_stack(pc, "sp is rebuilt from another register");
            unknown = true;
            break;
          }
          depth -= d.imm;
          adjusted = true;
        } else if (writes_int_rd(d.op) && d.rd == 2) {
          note_unknown_stack(pc, "sp is written by " + std::string(mnemonic(d.op)));
          unknown = true;
          break;
        } else if (is_postinc(d.op) && d.rs1 == 2) {
          depth -= d.imm;
          adjusted = true;
        }
        if (adjusted) {
          if (depth < 0) {
            note_unknown_stack(pc, "sp rises above the function entry frame");
            unknown = true;
            break;
          }
          max_depth = std::max(max_depth, static_cast<std::uint64_t>(depth));
        }
      }
      if (unknown) break;
      if (b.is_return && depth != 0) {
        note_unknown_stack(b.end - 4u, "function returns with an unbalanced sp");
        unknown = true;
        break;
      }
      if (b.has_call) {
        const std::uint64_t cs = callee_stack(b.call_target);
        if (cs == kInf) {
          note_unknown_stack(b.end - 4u, "callee stack depth is unknown");
          unknown = true;
          break;
        }
        max_depth = std::max(
            max_depth, sat_add(static_cast<std::uint64_t>(depth), cs));
      }
      for (const std::uint32_t succ : b.successors) {
        if (f.blocks.count(succ) == 0 || block_at(succ) == nullptr) continue;
        const auto [it, inserted] = depth_in.emplace(succ, depth);
        if (inserted) {
          work.push_back(succ);
        } else if (it->second != depth) {
          note_unknown_stack(succ, "stack depth differs across paths");
          unknown = true;
          break;
        }
      }
    }
    return unknown ? kInf : max_depth;
  }

  // --- pass 8: whole-program bounds -------------------------------------

  void compute_bound() {
    if (report.blocks.empty()) return;

    // Hardware-loop floor surcharge, innermost first: a well-formed loop
    // whose iteration count is statically exact is guaranteed to run its
    // body `count` times, so charge (count - 1) extra copies of the cheapest
    // single iteration onto the block holding the setup instruction. Inner
    // surcharges land before outer iteration costs are measured, so nested
    // static counts multiply as they do dynamically.
    const auto min_cost = [&](std::uint32_t s) -> std::uint64_t {
      return block_at(s)->min_cycles;
    };
    std::vector<std::size_t> order(regions.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return regions[a].end - regions[a].start < regions[b].end - regions[b].start;
    });
    for (const std::size_t i : order) {
      const HwLoopRegion& r = regions[i];
      if (!r.well_formed || r.static_count <= 1) continue;
      if (!body_is_clean(r)) continue;
      // One iteration: from the body's first block to any block that can take
      // the back edge (its successor set includes the loop start).
      std::set<std::uint32_t> accept;
      for (const BasicBlock& b : report.blocks) {
        if (b.start < r.start || b.start >= r.end) continue;
        if (std::find(b.successors.begin(), b.successors.end(), r.start) !=
            b.successors.end()) {
          accept.insert(b.start);
        }
      }
      if (accept.empty()) continue;
      const std::uint64_t iter =
          cheapest(r.start, accept, r.start, r.end, nullptr, min_cost);
      if (iter == kInf) continue;
      const std::size_t setup_idx = block_index_of(r.setup_pc);
      report.blocks[setup_idx].min_cycles +=
          static_cast<std::uint64_t>(r.static_count - 1u) * iter;
    }

    discover_functions();
    compose_functions();

    const auto it = funcs.find(report.entry);
    if (it != funcs.end()) {
      report.min_cycles = it->second.min;
      report.max_cycles = it->second.max;
      report.stack_bytes = it->second.stack;
      if (options.stack_limit_bytes > 0 && it->second.stack != kInf &&
          it->second.stack > options.stack_limit_bytes) {
        diag(DiagKind::kStackOverflow, Severity::kError, report.entry,
             "pc=" + hex32(report.entry) + ": provable stack depth " +
                 std::to_string(it->second.stack) + " bytes exceeds the " +
                 std::to_string(options.stack_limit_bytes) + "-byte limit");
      }
    }
    for (const auto& [entry, f] : funcs) {
      (void)entry;
      FunctionSummary s;
      s.entry = f.entry;
      s.min_cycles = f.min;
      s.max_cycles = f.max;
      s.stack_bytes = f.stack;
      s.recursive = f.recursive;
      report.functions.push_back(s);
    }
  }

  AnalysisReport run(std::uint32_t entry) {
    scan(entry);
    check_hwloops();
    build_blocks();
    analyze_blocks();
    compute_bound();
    report.loops = regions;  // after analyze_blocks' exact-count upgrades
    std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.pc < b.pc;
                     });
    return std::move(report);
  }
};

void json_escape(std::ostringstream& os, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(ch) << std::dec;
        } else {
          os << ch;
        }
    }
  }
}

void json_u64_or_null(std::ostringstream& os, std::uint64_t v) {
  if (v == kInf) {
    os << "null";
  } else {
    os << v;
  }
}

}  // namespace

const char* diag_kind_name(DiagKind kind) {
  switch (kind) {
    case DiagKind::kIllegalWord: return "illegal-word";
    case DiagKind::kUnsupportedInstruction: return "unsupported-instruction";
    case DiagKind::kTargetOutOfImage: return "target-out-of-image";
    case DiagKind::kTargetMisaligned: return "target-misaligned";
    case DiagKind::kHwloopBadBounds: return "hwloop-bad-bounds";
    case DiagKind::kHwloopTooDeep: return "hwloop-too-deep";
    case DiagKind::kHwloopOverlap: return "hwloop-overlap";
    case DiagKind::kHwloopBranchIn: return "hwloop-branch-in";
    case DiagKind::kHwloopBranchOut: return "hwloop-branch-out";
    case DiagKind::kHwloopBadLastInstruction: return "hwloop-bad-last-instruction";
    case DiagKind::kStaticAccessOutOfImage: return "static-access-out-of-image";
    case DiagKind::kStaticAccessMisaligned: return "static-access-misaligned";
    case DiagKind::kIndirectJump: return "indirect-jump";
    case DiagKind::kRecursiveCall: return "recursive-call";
    case DiagKind::kUnboundedLoop: return "unbounded-loop";
    case DiagKind::kStackOverflow: return "stack-overflow";
    case DiagKind::kUnknownStackPointer: return "unknown-stack-pointer";
  }
  return "unknown";
}

std::size_t AnalysisReport::error_count() const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

std::string AnalysisReport::to_text() const {
  std::ostringstream os;
  os << "iw_lint: profile=" << profile_name << " entry=" << hex32(entry)
     << " words=" << words_analyzed << " blocks=" << blocks.size()
     << " hwloops=" << loops.size() << " min_cycles=" << min_cycles
     << " max_cycles=";
  if (max_cycles == kUnboundedCycles) {
    os << "unbounded";
  } else {
    os << max_cycles;
  }
  os << " stack_bytes=";
  if (stack_bytes == kUnboundedCycles) {
    os << "unknown";
  } else {
    os << stack_bytes;
  }
  os << "\n";
  for (const Diagnostic& d : diagnostics) {
    os << (d.severity == Severity::kError ? "error" : "note") << " ["
       << diag_kind_name(d.kind) << "] " << d.message << "\n";
  }
  const std::size_t errors = error_count();
  if (errors == 0) {
    os << "ok: no errors\n";
  } else {
    os << errors << " error(s)\n";
  }
  return os.str();
}

std::string AnalysisReport::to_json() const {
  std::ostringstream os;
  os << "{\"profile\":\"";
  json_escape(os, profile_name);
  os << "\",\"entry\":" << entry << ",\"words_analyzed\":" << words_analyzed
     << ",\"min_cycles\":" << min_cycles << ",\"max_cycles\":";
  json_u64_or_null(os, max_cycles);
  os << ",\"stack_bytes\":";
  json_u64_or_null(os, stack_bytes);
  os << ",\"ok\":" << (ok() ? "true" : "false")
     << ",\"errors\":" << error_count() << ",\"blocks\":[";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BasicBlock& b = blocks[i];
    if (i != 0) os << ",";
    os << "{\"start\":" << b.start << ",\"end\":" << b.end
       << ",\"min_cycles\":" << b.min_cycles
       << ",\"max_cycles\":" << b.max_cycles << ",\"halts\":"
       << (b.halts ? "true" : "false") << ",\"indirect\":"
       << (b.has_indirect ? "true" : "false") << ",\"successors\":[";
    for (std::size_t k = 0; k < b.successors.size(); ++k) {
      if (k != 0) os << ",";
      os << b.successors[k];
    }
    os << "]}";
  }
  os << "],\"hwloops\":[";
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const HwLoopRegion& r = loops[i];
    if (i != 0) os << ",";
    os << "{\"setup_pc\":" << r.setup_pc << ",\"start\":" << r.start
       << ",\"end\":" << r.end << ",\"index\":" << r.index
       << ",\"static_count\":" << r.static_count
       << ",\"exact_count\":" << r.exact_count << ",\"well_formed\":"
       << (r.well_formed ? "true" : "false") << "}";
  }
  os << "],\"functions\":[";
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionSummary& f = functions[i];
    if (i != 0) os << ",";
    os << "{\"entry\":" << f.entry << ",\"min_cycles\":" << f.min_cycles
       << ",\"max_cycles\":";
    json_u64_or_null(os, f.max_cycles);
    os << ",\"stack_bytes\":";
    json_u64_or_null(os, f.stack_bytes);
    os << ",\"recursive\":" << (f.recursive ? "true" : "false") << "}";
  }
  os << "],\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i != 0) os << ",";
    os << "{\"kind\":\"" << diag_kind_name(d.kind) << "\",\"severity\":\""
       << (d.severity == Severity::kError ? "error" : "note")
       << "\",\"pc\":" << d.pc << ",\"message\":\"";
    json_escape(os, d.message);
    os << "\"}";
  }
  os << "]}";
  return os.str();
}

namespace {

std::atomic<std::uint64_t> g_analyses{0};

/// Runs the analyzer. When `decoded` is given it receives the merged [start,
/// end) ranges of every instruction word the analyzer decoded.
AnalysisReport run_analyzer(Memory& mem, std::uint32_t entry, const TimingProfile& profile,
                            const AnalyzeOptions& options,
                            std::vector<std::pair<std::uint32_t, std::uint32_t>>* decoded) {
  ++g_analyses;
  Analyzer analyzer(mem, entry, profile, options);
  AnalysisReport report = analyzer.run(entry);
  if (decoded != nullptr) {
    for (const auto& [pc, in] : analyzer.instrs) {
      (void)in;
      if (!decoded->empty() && decoded->back().second == pc) {
        decoded->back().second = pc + 4u;
      } else {
        decoded->emplace_back(pc, pc + 4u);
      }
    }
  }
  return report;
}

[[noreturn]] void throw_rejected(const AnalysisReport& report, const TimingProfile& profile) {
  std::ostringstream os;
  os << "verify_on_load[" << profile.name << "]: " << report.error_count()
     << " static diagnostic(s):";
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity != Severity::kError) continue;
    os << "\n  [" << diag_kind_name(d.kind) << "] " << d.message;
  }
  fail(os.str());
}

/// Condenses an accepted report into the trace compiler's certificate.
CodeCertificate certificate_of(const AnalysisReport& report) {
  CodeCertificate cert;
  cert.ok = true;
  // Merge the (sorted) blocks into disjoint code ranges; adjacent blocks
  // fuse so a superblock can run straight-line across block boundaries.
  for (const BasicBlock& b : report.blocks) {
    if (!cert.ranges.empty() && b.start <= cert.ranges.back().second) {
      if (b.end > cert.ranges.back().second) cert.ranges.back().second = b.end;
    } else {
      cert.ranges.emplace_back(b.start, b.end);
    }
  }
  for (const HwLoopRegion& r : report.loops) cert.loop_ends.push_back(r.end);
  return cert;
}

/// The process-wide load-analysis cache (see analysis.hpp), most recently
/// used image first. Entries are immutable once published.
class LoadCache {
 public:
  std::shared_ptr<const LoadAnalysis> find(const Memory& mem, std::uint32_t entry,
                                           const TimingProfile& profile) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = lookup(mem, entry, profile);
    if (it == entries_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    entries_.splice(entries_.begin(), entries_, it);
    return it->analysis;
  }

  /// Keeps `analysis` of the image now in `mem` unless a racing caller
  /// already kept the same image.
  void publish(const Memory& mem, std::uint32_t entry, const TimingProfile& profile,
               std::shared_ptr<const LoadAnalysis> analysis) {
    Entry e{profile, entry, mem.size(), {}, std::move(analysis)};
    for (const auto& [start, end] : e.analysis->code) {
      for (std::uint32_t pc = start; pc < end; pc += 4) e.words.push_back(mem.load32(pc));
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (lookup(mem, entry, profile) != entries_.end()) return;
    entries_.push_front(std::move(e));
    if (entries_.size() > kLoadCacheCapacity) entries_.pop_back();
  }

  LoadCacheStats stats() {
    const std::lock_guard<std::mutex> lock(mu_);
    LoadCacheStats s = stats_;
    s.entries = entries_.size();
    s.analyses = g_analyses.load();
    return s;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    stats_ = LoadCacheStats{};
    g_analyses.store(0);
  }

 private:
  struct Entry {
    TimingProfile profile;
    std::uint32_t entry = 0;
    std::size_t mem_size = 0;
    std::vector<std::uint32_t> words;  // the decoded words, in `code` order
    std::shared_ptr<const LoadAnalysis> analysis;
  };

  std::list<Entry>::iterator lookup(const Memory& mem, std::uint32_t entry,
                                    const TimingProfile& profile) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->entry == entry && it->mem_size == mem.size() && it->profile == profile &&
          same_code(*it, mem)) {
        return it;
      }
    }
    return entries_.end();
  }

  static bool same_code(const Entry& e, const Memory& mem) {
    std::size_t k = 0;
    for (const auto& [start, end] : e.analysis->code) {
      for (std::uint32_t pc = start; pc < end; pc += 4, ++k) {
        if (mem.load32(pc) != e.words[k]) return false;
      }
    }
    return true;
  }

  std::mutex mu_;
  std::list<Entry> entries_;
  LoadCacheStats stats_;
};

LoadCache& load_cache() {
  static LoadCache instance;
  return instance;
}

void verify_load(Memory& mem, std::uint32_t entry, const TimingProfile& profile) {
  (void)load_analysis(mem, entry, profile);
}

CodeCertificate certify_load(Memory& mem, std::uint32_t entry, const TimingProfile& profile) {
  try {
    return load_analysis(mem, entry, profile)->certificate;
  } catch (...) {
    return CodeCertificate{};  // rejected or failed: nothing is certified
  }
}

}  // namespace

AnalysisReport analyze(Memory& mem, std::uint32_t entry,
                       const TimingProfile& profile,
                       const AnalyzeOptions& options) {
  return run_analyzer(mem, entry, profile, options, nullptr);
}

void verify_or_throw(Memory& mem, std::uint32_t entry,
                     const TimingProfile& profile) {
  const AnalysisReport report = analyze(mem, entry, profile);
  if (!report.ok()) throw_rejected(report, profile);
}

CodeCertificate certify(Memory& mem, std::uint32_t entry,
                        const TimingProfile& profile) {
  try {
    const AnalysisReport report = analyze(mem, entry, profile);
    if (report.ok()) return certificate_of(report);
  } catch (...) {
    // analysis failure: nothing is certified
  }
  return CodeCertificate{};
}

std::shared_ptr<const LoadAnalysis> load_analysis(Memory& mem, std::uint32_t entry,
                                                  const TimingProfile& profile) {
  LoadCache& cache = load_cache();
  if (auto hit = cache.find(mem, entry, profile)) return hit;
  auto analysis = std::make_shared<LoadAnalysis>();
  const AnalysisReport report = run_analyzer(mem, entry, profile, {}, &analysis->code);
  if (!report.ok()) throw_rejected(report, profile);
  analysis->certificate = certificate_of(report);
  cache.publish(mem, entry, profile, analysis);
  return analysis;
}

LoadCacheStats load_cache_stats() { return load_cache().stats(); }

void clear_load_cache() { load_cache().clear(); }

void install_load_verifier() {
  set_program_verifier(&verify_load);
  set_code_analyzer(&certify_load);
}

}  // namespace iw::rv::analysis
