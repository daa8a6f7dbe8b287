// Single-core machine: memory + one core + run loop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "rvsim/core.hpp"
#include "rvsim/memory.hpp"
#include "rvsim/trace.hpp"

namespace iw::rv {

struct RunResult {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

/// Convenience wrapper used for the single-core execution targets
/// (Cortex-M4-class, IBEX, single RI5CY).
class Machine {
 public:
  explicit Machine(TimingProfile profile, std::size_t mem_bytes = 1u << 20);

  // The core holds a reference to this machine's memory: not movable.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Memory& memory() { return mem_; }
  const Memory& memory() const { return mem_; }
  Core& core() { return core_; }

  /// Copies an encoded program into memory at `base`.
  void load_program(std::span<const std::uint32_t> words, std::uint32_t base = 0);

  /// Opt-in static verification gate: when enabled, run() statically analyzes
  /// the loaded image from the entry point before executing anything and
  /// throws iw::Error on any diagnostic (unsupported instructions, malformed
  /// hardware loops, bad jump targets, ...). Requires the iw_rvsim_analysis
  /// verifier to be installed (see rvsim/verify_hook.hpp); the installed one
  /// skips the analysis for an image it has accepted before.
  void set_verify_on_load(bool enabled) { verify_on_load_ = enabled; }
  bool verify_on_load() const { return verify_on_load_; }

  /// Enables or disables superblock trace execution (default: the process
  /// default, see set_default_trace_mode). Results are bit-identical either
  /// way; off forces the pure interpreter (the bench's baseline axis).
  void set_trace_mode(bool enabled);
  bool trace_mode() const { return core_.trace_space() != nullptr; }
  /// The machine's trace store, or nullptr when trace mode is off.
  TraceSpace* trace_space() { return tspace_.get(); }

  /// Resets the core and runs from `entry` until ecall. Throws if the
  /// instruction budget is exhausted (runaway program).
  RunResult run(std::uint32_t entry, std::uint64_t max_instructions = 200'000'000);

 private:
  Memory mem_;
  Core core_;
  std::unique_ptr<TraceSpace> tspace_;
  bool verify_on_load_ = false;
};

}  // namespace iw::rv
