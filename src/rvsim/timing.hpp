// Cycle-cost profiles for the three execution targets the paper compares.
//
// The simulator is cycle-approximate: every instruction has a base cost from
// its class, plus data-dependent penalties (taken branches, load-use stalls,
// TCDM bank conflicts in the cluster). The per-class costs below are set from
// published microarchitecture documentation and then trimmed so the MLP
// kernels land near the paper's Table III cycle counts; EXPERIMENTS.md
// records the residual error.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "rvsim/isa.hpp"

namespace iw::rv {

struct TimingProfile {
  std::string name;
  double freq_hz = 100e6;

  int alu = 1;
  int mul = 1;
  int div = 8;
  int load = 1;
  int store = 1;
  /// Extra cycles when a dependent instruction immediately follows a load.
  int load_use_stall = 0;
  /// Extra cycles for back-to-back loads beyond the first (models cores that
  /// do not pipeline consecutive memory accesses).
  int load_nonpipelined_extra = 0;
  int branch = 1;
  /// Extra cycles when a branch is taken (pipeline refill).
  int branch_taken_extra = 2;
  int jump = 2;
  int csr = 1;
  int system = 1;
  int fpu_alu = 1;
  int fpu_mul = 1;
  int fpu_madd = 3;
  int fpu_div = 14;
  int fpu_cvt = 1;
  int fpu_move = 1;
  int fpu_cmp = 1;
  int hwloop_setup = 1;
  int simd = 1;
  int mac = 1;

  bool has_hwloop = false;
  bool has_postinc = false;
  bool has_mac = false;
  bool has_simd = false;
  bool has_fpu = false;

  /// Base cost for an instruction of the given class.
  int base_cost(OpClass cls) const;
  /// True when the profile can legally execute the opcode.
  bool supports(Op op) const;

  bool operator==(const TimingProfile&) const = default;
};

/// Per-opcode cost and support tables resolved from a profile. Built once per
/// decode cache so the per-instruction hot path never re-derives
/// op_class() -> base_cost() -> supports() per step.
struct ResolvedProfile {
  std::array<std::int16_t, kOpCount> base_cost{};
  std::array<bool, kOpCount> supported{};
};
ResolvedProfile resolve(const TimingProfile& profile);

/// ARM Cortex-M4F-class profile (Nordic nRF52832 @ 64 MHz). Scalar core with
/// single-cycle MAC (MLA), post-indexed addressing, pipelined back-to-back
/// loads, FPU; no hardware loops.
TimingProfile cortex_m4f();

/// IBEX-class profile (Mr. Wolf fabric controller @ 100 MHz). Small RV32IM
/// core: multi-cycle multiplier, 2-cycle loads, no DSP extensions, no FPU.
TimingProfile ibex();

/// RI5CY-class profile (Mr. Wolf cluster core @ 100 MHz). RV32IM + Xpulp:
/// hardware loops, post-increment addressing, MAC, SIMD; single-cycle TCDM
/// loads with a load-use stall.
TimingProfile ri5cy();

}  // namespace iw::rv
