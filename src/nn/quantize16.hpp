// 16-bit packed-SIMD quantization (the pv.sdotsp.h path).
//
// Mr. Wolf's RI5CY cores offer packed 16-bit dot-product instructions that
// retire two MACs per cycle. This module provides the matching export: all
// weights and activations as int16 in one Q format, bias pre-shifted into
// the accumulator domain, rows padded to an even number of entries so the
// kernel can always consume whole 32-bit pairs (pad weights are zero, so the
// paired garbage activation contributes nothing).
//
// Kernel/neuron semantics (mirrored bit-exactly by infer_fixed):
//   acc32  = sum over pairs of (w0*x0 + w1*x1)   -- int16 x int16 products
//   acc32 += bias_q2f                            -- bias in Q(2*frac)
//   y16    = tanh_lut(clip(acc32 >> frac))
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/tanh_lut.hpp"
#include "nn/network.hpp"

namespace iw::nn {

struct QuantizedLayer16 {
  std::size_t n_in = 0;
  std::size_t n_out = 0;
  std::size_t row_pairs = 0;  // ceil(n_in / 2)
  /// Row-major per output neuron, padded with zeros to 2*row_pairs entries.
  std::vector<std::int16_t> weights;
  /// Per-neuron bias in Q(2*frac_bits).
  std::vector<std::int32_t> biases;
};

class QuantizedNetwork16 {
 public:
  /// Quantizes a tanh network for the 16-bit SIMD path. The format is
  /// narrower than the 32-bit export because the whole row accumulates
  /// before the shift (see select_frac_bits16).
  static QuantizedNetwork16 from(const Network& net, int max_frac_bits = 12,
                                 int tanh_log2_size = 9);

  int frac_bits() const { return q_.frac_bits; }
  fx::QFormat format() const { return q_; }
  const fx::TanhTable& tanh_table() const { return tanh_; }
  const std::vector<QuantizedLayer16>& layers() const { return layers_; }
  std::size_t num_inputs() const { return layers_.front().n_in; }
  std::size_t num_outputs() const { return layers_.back().n_out; }

  /// Clamps to [-1, 1] and converts to int16 in the network's Q format.
  std::vector<std::int16_t> quantize_input(std::span<const float> input) const;

  /// Host reference, bit-exact with the SIMD kernel.
  std::vector<std::int16_t> infer_fixed(std::span<const std::int16_t> input) const;

  /// Convenience float-in/float-out inference.
  std::vector<float> infer(std::span<const float> input) const;

  /// Argmax classification: quantizes, runs the fixed pipeline, and takes the
  /// argmax directly on the int16 outputs (dequantization is monotonic, so
  /// converting back to float first could never change the decision).
  std::size_t classify(std::span<const float> input) const;

 private:
  QuantizedNetwork16(fx::QFormat q, int tanh_log2_size) : q_(q), tanh_(q, tanh_log2_size) {}

  fx::QFormat q_;
  fx::TanhTable tanh_;
  std::vector<QuantizedLayer16> layers_;
};

/// Largest f <= max_frac_bits such that (a) every weight fits int16 and
/// (b) a full row accumulation plus bias stays within int32 with 2x margin.
int select_frac_bits16(const Network& net, int max_frac_bits = 12);

}  // namespace iw::nn
