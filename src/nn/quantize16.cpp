#include "nn/quantize16.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace iw::nn {

namespace {

/// Round-to-nearest conversion to int16 in Q(frac_bits), saturating at the
/// int16 limits: the quantizer for both weights and activations.
std::int16_t to_fixed16(double value, int frac_bits) {
  const double scaled = std::nearbyint(value * std::ldexp(1.0, frac_bits));
  const double clamped = std::clamp(scaled, -32768.0, 32767.0);
  return static_cast<std::int16_t>(clamped);
}

}  // namespace

int select_frac_bits16(const Network& net, int max_frac_bits) {
  ensure(max_frac_bits >= 4 && max_frac_bits <= 14, "select_frac_bits16: bad cap");
  const double wmax = std::max(1.0, static_cast<double>(net.max_abs_weight()));
  const double row = std::max(1.0, static_cast<double>(net.max_row_abs_sum()));
  for (int f = max_frac_bits; f >= 4; --f) {
    const double scale = std::ldexp(1.0, f);
    const bool weight_fits = wmax * scale < 32767.0;
    // Whole-row accumulation in Q(2f) plus the bias, with 2x margin.
    const bool acc_ok = (row + wmax) * scale * scale * 2.0 < 2147483648.0;
    if (weight_fits && acc_ok) return f;
  }
  fail("select_frac_bits16: weights too large for the 16-bit format");
}

QuantizedNetwork16 QuantizedNetwork16::from(const Network& net, int max_frac_bits,
                                            int tanh_log2_size) {
  for (const Layer& layer : net.layers()) {
    ensure(layer.activation == Activation::kTanh,
           "QuantizedNetwork16: only tanh activations are supported");
  }
  const int frac = select_frac_bits16(net, max_frac_bits);
  QuantizedNetwork16 qn(fx::QFormat{frac}, tanh_log2_size);
  qn.layers_.reserve(net.num_layers());
  const double bias_scale = std::ldexp(1.0, 2 * frac);
  for (const Layer& layer : net.layers()) {
    QuantizedLayer16 ql;
    ql.n_in = layer.n_in;
    ql.n_out = layer.n_out;
    ql.row_pairs = (layer.n_in + 1) / 2;
    ql.weights.assign(2 * ql.row_pairs * layer.n_out, 0);
    ql.biases.resize(layer.n_out);
    for (std::size_t o = 0; o < layer.n_out; ++o) {
      for (std::size_t i = 0; i < layer.n_in; ++i) {
        ql.weights[o * 2 * ql.row_pairs + i] = to_fixed16(layer.weight(o, i), frac);
      }
      ql.biases[o] = static_cast<std::int32_t>(
          std::nearbyint(static_cast<double>(layer.bias(o)) * bias_scale));
    }
    qn.layers_.push_back(std::move(ql));
  }
  return qn;
}

std::vector<std::int16_t> QuantizedNetwork16::quantize_input(
    std::span<const float> input) const {
  ensure(input.size() == num_inputs(), "QuantizedNetwork16: input width mismatch");
  std::vector<std::int16_t> out(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    out[i] = to_fixed16(std::clamp(input[i], -1.0f, 1.0f), q_.frac_bits);
  }
  return out;
}

std::vector<std::int16_t> QuantizedNetwork16::infer_fixed(
    std::span<const std::int16_t> input) const {
  ensure(input.size() == num_inputs(), "QuantizedNetwork16: input width mismatch");
  const std::int32_t range = tanh_.range_fixed();
  std::vector<std::int16_t> current(input.begin(), input.end());
  // Pad to an even length so pairs are always complete (pad weights are 0).
  if (current.size() % 2 != 0) current.push_back(0);

  std::vector<std::int16_t> next;
  for (const QuantizedLayer16& layer : layers_) {
    next.assign(layer.n_out % 2 == 0 ? layer.n_out : layer.n_out + 1, 0);
    for (std::size_t o = 0; o < layer.n_out; ++o) {
      const std::int16_t* row = layer.weights.data() + o * 2 * layer.row_pairs;
      std::int32_t acc = 0;
      for (std::size_t p = 0; p < layer.row_pairs; ++p) {
        // Mirrors pv.sdotsp.h: two int16 products accumulated in int32.
        acc += static_cast<std::int32_t>(row[2 * p]) * current[2 * p];
        acc += static_cast<std::int32_t>(row[2 * p + 1]) * current[2 * p + 1];
      }
      acc += layer.biases[o];
      const std::int32_t shifted = acc >> q_.frac_bits;
      const std::int32_t clamped = std::clamp(shifted, -range, range - 1);
      next[o] = static_cast<std::int16_t>(tanh_.eval(clamped));
    }
    current.swap(next);
  }
  current.resize(num_outputs());
  return current;
}

std::size_t QuantizedNetwork16::classify(std::span<const float> input) const {
  const std::vector<std::int16_t> fixed = infer_fixed(quantize_input(input));
  return argmax(std::span<const std::int16_t>(fixed));
}

std::vector<float> QuantizedNetwork16::infer(std::span<const float> input) const {
  const auto fixed = infer_fixed(quantize_input(input));
  std::vector<float> out(fixed.size());
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    out[i] = static_cast<float>(fx::to_double(fixed[i], q_));
  }
  return out;
}

}  // namespace iw::nn
