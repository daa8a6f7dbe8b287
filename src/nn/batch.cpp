#include "nn/batch.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/fixed_point.hpp"

namespace iw::nn {

namespace {

std::size_t check_rows(std::size_t inputs_size, std::size_t n_in,
                       std::size_t outputs_size, std::size_t n_out,
                       const char* who) {
  ensure(n_in > 0 && inputs_size % n_in == 0,
         std::string(who) + ": inputs are not a whole number of rows");
  const std::size_t n = inputs_size / n_in;
  ensure(outputs_size == n * n_out,
         std::string(who) + ": output span does not match the batch size");
  return n;
}

// The layer kernels below exist twice: templated on a compile-time tile width
// T (the hot path — constant trip counts let the compiler keep the per-lane
// accumulators in registers and vectorize the sample loops), and with a
// runtime width for odd user-chosen tiles. Both run the per-sample arithmetic
// sequence unchanged, so they are interchangeable bit for bit.
//
// The fixed-width kernels always compute all T lanes. On a partial tile the
// caller zeroes the unused input lanes first, making every lane's arithmetic
// defined (a zero input row cannot overflow any accumulator — each product is
// zero and the bias alone is in range); the unused lanes are simply never
// scattered out.

template <std::size_t T>
const float* run_float_tile(const Network& net, float* cur, float* nxt) {
  for (const Layer& layer : net.layers()) {
    for (std::size_t o = 0; o < layer.n_out; ++o) {
      const float* row = layer.weights.data() + o * (layer.n_in + 1);
      // Per sample this is exactly Network::infer's neuron: a double
      // accumulator seeded with the bias, products added in input order.
      double acc[T];
      const double bias = row[layer.n_in];
      for (std::size_t s = 0; s < T; ++s) acc[s] = bias;
      for (std::size_t i = 0; i < layer.n_in; ++i) {
        const double w = row[i];
        const float* col = cur + i * T;
        // Keep this a loop (no early full unroll) so the loop vectorizer can
        // emit float->double widening vector ops. Lane order is untouched:
        // each sample's accumulation chain stays in input order, so this is
        // still bit-exact with Network::infer.
#pragma GCC unroll 1
        for (std::size_t s = 0; s < T; ++s) acc[s] += w * col[s];
      }
      float* dst = nxt + o * T;
      for (std::size_t s = 0; s < T; ++s) {
        dst[s] = static_cast<float>(activate(layer.activation, acc[s]));
      }
    }
    std::swap(cur, nxt);
  }
  return cur;
}

template <std::size_t T>
const std::int32_t* run_fixed_tile(const QuantizedNetwork& net,
                                   std::int32_t* cur, std::int32_t* nxt) {
  constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  const std::int32_t range = net.tanh_table().range_fixed();
  const int frac = net.format().frac_bits;
  for (const QuantizedLayer& layer : net.layers()) {
    for (std::size_t o = 0; o < layer.n_out; ++o) {
      const std::int32_t* row = layer.weights.data() + o * (layer.n_in + 1);
      std::int64_t acc[T];
      for (std::size_t s = 0; s < T; ++s) acc[s] = 0;
      // Per-sample semantics: 32-bit product, one arithmetic shift per
      // product, accumulated in input order. The overflow guard is folded
      // into a mask so the loop stays branch-free; a tripped mask throws just
      // like the per-sample path (no outputs are produced either way).
      std::int64_t overflow = 0;
      for (std::size_t i = 0; i < layer.n_in; ++i) {
        const std::int64_t w = row[i];
        const std::int32_t* col = cur + i * T;
        for (std::size_t s = 0; s < T; ++s) {
          const std::int64_t prod = w * static_cast<std::int64_t>(col[s]);
          overflow |=
              prod - static_cast<std::int64_t>(static_cast<std::int32_t>(prod));
          acc[s] += prod >> frac;
        }
      }
      ensure(overflow == 0,
             "FixedBatch: 32-bit product overflow (format selection bug)");
      std::int32_t* dst = nxt + o * T;
      for (std::size_t s = 0; s < T; ++s) {
        const std::int64_t a = acc[s] + row[layer.n_in];  // bias weight * 1.0
        ensure(a >= kMin32 && a <= kMax32,
               "FixedBatch: accumulator overflow (format selection bug)");
        const std::int32_t clamped =
            std::clamp(static_cast<std::int32_t>(a), -range, range - 1);
        dst[s] = net.tanh_table().eval(clamped);
      }
    }
    std::swap(cur, nxt);
  }
  return cur;
}

/// Zeroes the unused lanes [t, tile) of every input column so the fixed-width
/// kernels can compute all lanes of a partial tile.
template <typename V>
void zero_lane_tail(V* in, std::size_t width, std::size_t tile, std::size_t t) {
  for (std::size_t i = 0; i < width; ++i) {
    for (std::size_t s = t; s < tile; ++s) in[i * tile + s] = V{0};
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Float path
// ---------------------------------------------------------------------------

FloatBatch::FloatBatch(const Network& net, std::size_t tile)
    : net_(&net), tile_(tile) {
  ensure(tile_ >= 1 && tile_ <= kMaxBatchTile, "FloatBatch: tile out of range");
  stride_ = net.num_inputs();
  for (const Layer& layer : net.layers()) stride_ = std::max(stride_, layer.n_out);
  in_.assign(stride_ * tile_, 0.0f);
  out_.assign(stride_ * tile_, 0.0f);
}

const float* FloatBatch::run_tile(std::size_t t) {
  if (tile_ == kDefaultBatchTile || tile_ == kMaxBatchTile) {
    if (t < tile_) zero_lane_tail(in_.data(), net_->num_inputs(), tile_, t);
    return tile_ == kDefaultBatchTile
               ? run_float_tile<kDefaultBatchTile>(*net_, in_.data(), out_.data())
               : run_float_tile<kMaxBatchTile>(*net_, in_.data(), out_.data());
  }
  // Runtime-width fallback for unusual tile choices; same arithmetic, only
  // the loop bound differs.
  float* cur = in_.data();
  float* nxt = out_.data();
  for (const Layer& layer : net_->layers()) {
    for (std::size_t o = 0; o < layer.n_out; ++o) {
      const float* row = layer.weights.data() + o * (layer.n_in + 1);
      double acc[kMaxBatchTile];
      const double bias = row[layer.n_in];
      for (std::size_t s = 0; s < t; ++s) acc[s] = bias;
      for (std::size_t i = 0; i < layer.n_in; ++i) {
        const double w = row[i];
        const float* col = cur + i * tile_;
        for (std::size_t s = 0; s < t; ++s) acc[s] += w * col[s];
      }
      float* dst = nxt + o * tile_;
      for (std::size_t s = 0; s < t; ++s) {
        dst[s] = static_cast<float>(activate(layer.activation, acc[s]));
      }
    }
    std::swap(cur, nxt);
  }
  return cur;
}

void FloatBatch::infer(std::span<const float> inputs, std::span<float> outputs) {
  const std::size_t n_in = net_->num_inputs();
  const std::size_t n_out = net_->num_outputs();
  const std::size_t n =
      check_rows(inputs.size(), n_in, outputs.size(), n_out, "FloatBatch::infer");
  for (std::size_t base = 0; base < n; base += tile_) {
    const std::size_t t = std::min(tile_, n - base);
    for (std::size_t s = 0; s < t; ++s) {
      const float* src = inputs.data() + (base + s) * n_in;
      for (std::size_t i = 0; i < n_in; ++i) in_[i * tile_ + s] = src[i];
    }
    const float* result = run_tile(t);
    for (std::size_t s = 0; s < t; ++s) {
      float* dst = outputs.data() + (base + s) * n_out;
      for (std::size_t o = 0; o < n_out; ++o) dst[o] = result[o * tile_ + s];
    }
  }
}

void FloatBatch::infer(std::span<const float* const> rows,
                       std::span<float> outputs) {
  const std::size_t n_in = net_->num_inputs();
  const std::size_t n_out = net_->num_outputs();
  ensure(outputs.size() == rows.size() * n_out,
         "FloatBatch::infer: output span does not match the batch size");
  for (std::size_t base = 0; base < rows.size(); base += tile_) {
    const std::size_t t = std::min(tile_, rows.size() - base);
    for (std::size_t s = 0; s < t; ++s) {
      const float* src = rows[base + s];
      for (std::size_t i = 0; i < n_in; ++i) in_[i * tile_ + s] = src[i];
    }
    const float* result = run_tile(t);
    for (std::size_t s = 0; s < t; ++s) {
      float* dst = outputs.data() + (base + s) * n_out;
      for (std::size_t o = 0; o < n_out; ++o) dst[o] = result[o * tile_ + s];
    }
  }
}

void FloatBatch::classify(std::span<const float* const> rows,
                          std::span<std::size_t> labels) {
  const std::size_t n_in = net_->num_inputs();
  const std::size_t n_out = net_->num_outputs();
  ensure(labels.size() == rows.size(),
         "FloatBatch::classify: one label slot per row required");
  for (std::size_t base = 0; base < rows.size(); base += tile_) {
    const std::size_t t = std::min(tile_, rows.size() - base);
    for (std::size_t s = 0; s < t; ++s) {
      const float* src = rows[base + s];
      for (std::size_t i = 0; i < n_in; ++i) in_[i * tile_ + s] = src[i];
    }
    const float* result = run_tile(t);
    for (std::size_t s = 0; s < t; ++s) {
      std::size_t best = 0;
      for (std::size_t o = 1; o < n_out; ++o) {
        if (result[o * tile_ + s] > result[best * tile_ + s]) best = o;
      }
      labels[base + s] = best;
    }
  }
}

// ---------------------------------------------------------------------------
// 32-bit fixed path
// ---------------------------------------------------------------------------

FixedBatch::FixedBatch(const QuantizedNetwork& net, std::size_t tile)
    : net_(&net), tile_(tile) {
  ensure(tile_ >= 1 && tile_ <= kMaxBatchTile, "FixedBatch: tile out of range");
  stride_ = net.num_inputs();
  for (const QuantizedLayer& layer : net.layers()) {
    stride_ = std::max(stride_, layer.n_out);
  }
  in_.assign(stride_ * tile_, 0);
  out_.assign(stride_ * tile_, 0);
}

const std::int32_t* FixedBatch::run_tile(std::size_t t) {
  if (tile_ == kDefaultBatchTile || tile_ == kMaxBatchTile) {
    if (t < tile_) zero_lane_tail(in_.data(), net_->num_inputs(), tile_, t);
    return tile_ == kDefaultBatchTile
               ? run_fixed_tile<kDefaultBatchTile>(*net_, in_.data(), out_.data())
               : run_fixed_tile<kMaxBatchTile>(*net_, in_.data(), out_.data());
  }
  constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  std::int32_t* cur = in_.data();
  std::int32_t* nxt = out_.data();
  const std::int32_t range = net_->tanh_table().range_fixed();
  const int frac = net_->format().frac_bits;
  for (const QuantizedLayer& layer : net_->layers()) {
    for (std::size_t o = 0; o < layer.n_out; ++o) {
      const std::int32_t* row = layer.weights.data() + o * (layer.n_in + 1);
      std::int64_t acc[kMaxBatchTile];
      for (std::size_t s = 0; s < t; ++s) acc[s] = 0;
      std::int64_t overflow = 0;
      for (std::size_t i = 0; i < layer.n_in; ++i) {
        const std::int64_t w = row[i];
        const std::int32_t* col = cur + i * tile_;
        for (std::size_t s = 0; s < t; ++s) {
          const std::int64_t prod = w * static_cast<std::int64_t>(col[s]);
          overflow |= prod - static_cast<std::int64_t>(static_cast<std::int32_t>(prod));
          acc[s] += prod >> frac;
        }
      }
      ensure(overflow == 0,
             "FixedBatch: 32-bit product overflow (format selection bug)");
      std::int32_t* dst = nxt + o * tile_;
      for (std::size_t s = 0; s < t; ++s) {
        const std::int64_t a = acc[s] + row[layer.n_in];  // bias weight * 1.0
        ensure(a >= kMin32 && a <= kMax32,
               "FixedBatch: accumulator overflow (format selection bug)");
        const std::int32_t clamped =
            std::clamp(static_cast<std::int32_t>(a), -range, range - 1);
        dst[s] = net_->tanh_table().eval(clamped);
      }
    }
    std::swap(cur, nxt);
  }
  return cur;
}

void FixedBatch::load_rows(std::span<const float* const> rows, std::size_t base,
                           std::size_t t) {
  const std::size_t n_in = net_->num_inputs();
  const fx::QFormat q = net_->format();
  for (std::size_t s = 0; s < t; ++s) {
    const float* src = rows[base + s];
    for (std::size_t i = 0; i < n_in; ++i) {
      const float clamped = std::clamp(src[i], -1.0f, 1.0f);
      in_[i * tile_ + s] = fx::to_fixed(clamped, q);
    }
  }
}

void FixedBatch::infer_fixed(std::span<const std::int32_t> inputs,
                             std::span<std::int32_t> outputs) {
  const std::size_t n_in = net_->num_inputs();
  const std::size_t n_out = net_->num_outputs();
  const std::size_t n = check_rows(inputs.size(), n_in, outputs.size(), n_out,
                                   "FixedBatch::infer_fixed");
  for (std::size_t base = 0; base < n; base += tile_) {
    const std::size_t t = std::min(tile_, n - base);
    for (std::size_t s = 0; s < t; ++s) {
      const std::int32_t* src = inputs.data() + (base + s) * n_in;
      for (std::size_t i = 0; i < n_in; ++i) in_[i * tile_ + s] = src[i];
    }
    const std::int32_t* result = run_tile(t);
    for (std::size_t s = 0; s < t; ++s) {
      std::int32_t* dst = outputs.data() + (base + s) * n_out;
      for (std::size_t o = 0; o < n_out; ++o) dst[o] = result[o * tile_ + s];
    }
  }
}

void FixedBatch::classify(std::span<const float* const> rows,
                          std::span<std::size_t> labels) {
  const std::size_t n_out = net_->num_outputs();
  ensure(labels.size() == rows.size(),
         "FixedBatch::classify: one label slot per row required");
  for (std::size_t base = 0; base < rows.size(); base += tile_) {
    const std::size_t t = std::min(tile_, rows.size() - base);
    load_rows(rows, base, t);
    const std::int32_t* result = run_tile(t);
    for (std::size_t s = 0; s < t; ++s) {
      std::size_t best = 0;
      for (std::size_t o = 1; o < n_out; ++o) {
        if (result[o * tile_ + s] > result[best * tile_ + s]) best = o;
      }
      labels[base + s] = best;
    }
  }
}

}  // namespace iw::nn
