// Instruction-mix statistics for simulated runs.
//
// An InstructionHistogram accumulates per-opcode retire counts; attach one
// to a Core and it sees every instruction the core executes. The kernel
// benches use this to explain cycle differences between targets (e.g. the
// IBEX kernel retires ~2x the loop-control instructions of the RI5CY one).
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "rvsim/isa.hpp"

namespace iw::rv {

class InstructionHistogram {
 public:
  void record(Op op) { ++counts_[static_cast<std::size_t>(op)]; }

  std::uint64_t count(Op op) const { return counts_[static_cast<std::size_t>(op)]; }
  std::uint64_t total() const;
  /// Sum over all opcodes of one timing class.
  std::uint64_t class_count(OpClass cls) const;
  /// Fraction of retired instructions in a class (0 when empty).
  double class_fraction(OpClass cls) const;

  /// Opcodes sorted by descending count (zero-count entries omitted).
  std::vector<std::pair<Op, std::uint64_t>> sorted() const;

  /// Human-readable mix report (top `max_rows` opcodes + class summary).
  void write_report(std::ostream& os, std::size_t max_rows = 12) const;

  void clear() { counts_.fill(0); }

  bool operator==(const InstructionHistogram&) const = default;

 private:
  std::array<std::uint64_t, kOpCount> counts_{};  // indexed by Op
};

}  // namespace iw::rv
