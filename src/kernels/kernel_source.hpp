// Assembly source generators for the MLP inference kernels.
//
// Table III of the paper compares one workload (MLP inference) across four
// execution targets. We generate one kernel per target flavor, exercising
// exactly the ISA features that distinguish them:
//
//  * kGeneric  (IBEX):      plain RV32IM, software loops, indexed addressing.
//  * kM4       (Cortex-M4): post-increment addressing and single-cycle MAC
//                           class, software loops (no hardware loops on ARM).
//  * kRi5cy    (RI5CY):     hardware loops + post-increment + p.clip.
//  * kM4Float  (Cortex-M4F): FPU kernel with a libm-style exp-based tanh
//                           (FANN's float build calls tanhf per neuron).
//  * parallel RI5CY kernel: 8 cores, interleaved output-neuron partitioning,
//                           hardware barrier per layer.
//
// The kernels read a layer table emitted as data words at the end of the
// program; weights, activations and the tanh LUT live at fixed addresses
// written by the runner (see kernel layout constants below).
#pragma once

#include <cstdint>
#include <string>

namespace iw::kernels {

/// Single-core kernel flavor.
enum class Flavor { kGeneric, kM4, kRi5cy };

/// Fixed memory layout shared between the source generators and the runner.
struct Layout {
  // The tanh LUT sits inside the TCDM region so the cluster cores contend for
  // it like real shared L1 data.
  static constexpr std::uint32_t kTanhTable = 0x20000;
  static constexpr std::uint32_t kWeights = 0x21000;
  static constexpr std::uint32_t kAct0 = 0xC0000;
  static constexpr std::uint32_t kAct1 = 0xC2000;
  static constexpr std::uint32_t kBarrier = 0xFFFC;
  static constexpr std::size_t kMemBytes = 1u << 20;
  static constexpr int kClusterCores = 8;
};

/// Parameters the generators bake into the source as .equ constants.
struct FixedKernelParams {
  int frac_bits = 13;
  std::int32_t range_fixed = 0;  // tanh table saturation bound
  int step_shift = 0;            // log2 of the table step in fixed ulps
  std::int32_t step_mask = 0;    // step - 1
  int n_layers = 0;
  /// Parallel kernel only: spin iterations (~5 cycles each) the master core
  /// spends per layer on runtime dispatch bookkeeping before releasing the
  /// workers, modeling the fork/offload overhead of OpenMP-style deployments
  /// on PULP clusters.
  int fork_spins = 200;
  /// Parallel kernel only: number of cluster cores (power of two, <= 8).
  int num_cores = Layout::kClusterCores;

  bool operator==(const FixedKernelParams&) const = default;
};

/// Fixed-point single-core kernel for the given flavor. `layer_table` holds
/// the .word lines describing each layer (n_in, n_out, weight address, input
/// address, output address), emitted by the runner.
std::string fixed_kernel_source(Flavor flavor, const FixedKernelParams& params,
                                const std::string& layer_table);

/// Fixed-point 8-core RI5CY kernel (interleaved rows, barrier per layer).
std::string parallel_kernel_source(const FixedKernelParams& params,
                                   const std::string& layer_table);

/// Float kernel for the Cortex-M4F (FPU) target.
std::string float_kernel_source(int n_layers, const std::string& layer_table);

/// Packed 16-bit SIMD kernel (RI5CY pv.sdotsp.h): two MACs per cycle.
/// Layer-table entries carry the pair count instead of n_in; weight rows are
/// packed int16 pairs followed by one int32 bias in Q(2*frac).
std::string simd_kernel_source(const FixedKernelParams& params,
                               const std::string& layer_table);

/// Multi-core SIMD kernel: interleaved-row partitioning + barriers like the
/// parallel kernel, with the packed 16-bit inner loop. The cluster's peak
/// configuration (params.num_cores cores x 2 MACs/cycle).
std::string parallel_simd_kernel_source(const FixedKernelParams& params,
                                        const std::string& layer_table);

}  // namespace iw::kernels
