// Executes the MLP kernels on the simulated cores and reports cycle counts.
//
// This is the measurement harness behind Table III: it lays a (quantized)
// network out in simulated memory, generates + assembles the right kernel for
// the requested execution target, runs it to completion, and returns both the
// network outputs (for bit-exactness checks against nn::QuantizedNetwork) and
// the cycle/instruction counts (for the runtime and energy tables).
//
// Compile once, execute per call: codegen, assembly and the bounds analysis
// run once per distinct kernel image and are memoized for the process
// (thread-safe). Weights and inputs are data written after the load; every
// call still builds a fresh Machine or Cluster and runs with the
// verify_on_load gate armed. The gate and trace certification both answer
// from the analysis library's load-analysis cache (rv::analysis::
// load_analysis), keyed on the image's code words, so a call on an image
// accepted before runs no static analysis at all.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "asmx/assembler.hpp"
#include "kernels/kernel_source.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "nn/quantize16.hpp"
#include "rvsim/analysis/analysis.hpp"
#include "rvsim/profile_stats.hpp"
#include "rvsim/timing.hpp"

namespace iw::kernels {

/// The four execution targets of Table III.
enum class Target { kCortexM4, kIbex, kRi5cySingle, kRi5cyMulti };

/// Timing profile used for a target.
rv::TimingProfile profile_for(Target target);
/// Human-readable target name as the paper prints it.
std::string target_name(Target target);

struct KernelRunResult {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::vector<std::int32_t> outputs_fixed;
  std::vector<std::int16_t> outputs_fixed16;
  std::vector<float> outputs_float;
  // Multi-core diagnostics (zero for single-core runs).
  std::uint64_t bank_conflict_stalls = 0;
  std::uint64_t barrier_wait_cycles = 0;
  /// Retired-instruction mix (aggregated over all cores for cluster runs).
  rv::InstructionHistogram histogram;
  /// Whole-program static cycle lower bound from iw_rvsim_analysis, computed
  /// on the loaded image before the run. Always <= cycles.
  std::uint64_t static_min_cycles = 0;
  /// Whole-program static cycle upper bound (WCET) from the same analysis,
  /// using the kernel generator's own loop-bound annotations (layer sizes)
  /// and, for cluster runs, the cluster's bank/barrier pessimism. Always
  /// >= cycles, or rv::analysis::kUnboundedCycles when no finite bound
  /// exists.
  std::uint64_t static_max_cycles = rv::analysis::kUnboundedCycles;
  /// Static maximum stack depth in bytes (the kernels are stackless, so 0),
  /// or rv::analysis::kUnboundedCycles when the stack pointer is untracked.
  std::uint64_t static_stack_bytes = 0;
};

/// Runs fixed-point inference of `net` on `target`. `input` must already be
/// in the network's Q format (see QuantizedNetwork::quantize_input).
KernelRunResult run_fixed_mlp(const nn::QuantizedNetwork& net,
                              std::span<const std::int32_t> input, Target target);

/// Runs float inference on the Cortex-M4F (FPU) target.
KernelRunResult run_float_mlp(const nn::Network& net, std::span<const float> input);

/// Ablation harness: runs the single-core fixed kernel of `flavor` on an
/// arbitrary timing profile (e.g. the generic RV32IM kernel on RI5CY timing
/// to isolate the value of the Xpulp extensions). The profile must support
/// every instruction the flavor emits.
KernelRunResult run_fixed_mlp_custom(const nn::QuantizedNetwork& net,
                                     std::span<const std::int32_t> input,
                                     Flavor flavor, const rv::TimingProfile& profile);

/// Ablation harness: parallel RI5CY kernel on a cluster of `num_cores`
/// (1, 2, 4 or 8) for the scaling study.
KernelRunResult run_fixed_mlp_parallel(const nn::QuantizedNetwork& net,
                                       std::span<const std::int32_t> input,
                                       int num_cores);

/// Packed 16-bit SIMD inference on a single RI5CY core (pv.sdotsp.h path).
/// `input` must come from QuantizedNetwork16::quantize_input.
KernelRunResult run_simd_mlp(const nn::QuantizedNetwork16& net,
                             std::span<const std::int16_t> input);

/// Multi-core 16-bit SIMD inference: the cluster's peak configuration
/// (num_cores cores, two MACs per core-cycle).
KernelRunResult run_simd_mlp_parallel(const nn::QuantizedNetwork16& net,
                                      std::span<const std::int16_t> input,
                                      int num_cores = 8);

/// The compile memo behind the run_*_mlp* calls: images kept, and calls
/// that reused one (hits) or compiled and analyzed their own (misses).
struct KernelMemoStats {
  std::size_t images = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
KernelMemoStats kernel_memo_stats();
/// Drops every kept image and zeroes the counters.
void clear_kernel_memo();

/// One assembled kernel image plus the timing profile it is meant to execute
/// on — the unit `tools/iw_lint --kernels` and scripts/check.sh feed to the
/// static analyzer.
struct KernelImage {
  std::string name;
  rv::TimingProfile profile;
  asmx::Program program;
  std::uint32_t entry = 0;
  std::size_t mem_bytes = Layout::kMemBytes;
  /// Uses extensions the IBEX profile lacks; the analyzer must reject the
  /// image there with an unsupported-instruction diagnostic.
  bool expect_reject_on_ibex = false;
  /// Analysis options for a WCET pass under the intended profile: the
  /// generator's loop-bound annotations plus cluster pessimism for the
  /// parallel kernels. Lint-only passes can ignore this.
  rv::analysis::AnalyzeOptions analyze_options;
};

/// Assembles every kernel shipped in src/kernels — the Table-III MLP kernels
/// (for a representative small network) plus the HRV/GSR feature-extraction
/// kernels — paired with their intended profiles.
std::vector<KernelImage> reference_kernel_images();

}  // namespace iw::kernels
