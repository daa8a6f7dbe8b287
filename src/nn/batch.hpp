// Batched, allocation-free inference for the float and 32-bit fixed paths.
//
// The per-sample entry points (Network::infer, QuantizedNetwork::infer_fixed)
// heap-allocate activation vectors on every call and stream the full weight
// matrix from memory once per sample. Training and the app's one-time
// test-set sweep run many samples through one network, so this module
// provides one batch engine per arithmetic path with workspaces preallocated
// at construction:
//
//   * Samples are processed in tiles of `tile` rows. Inside a tile the
//     activations are stored column-major (feature-major: entry `i * tile + s`
//     for sample s), so the innermost loop runs over contiguous samples and
//     each weight row is streamed once per tile instead of once per sample —
//     the cache-blocking scheme that makes large networks (Network B's 81k
//     weights) batch-friendly.
//   * Per sample, the arithmetic sequence is identical to the per-sample
//     reference: accumulate in input order (one shift per product on the
//     32-bit path), add bias, clip, LUT. The fixed-point engine is therefore
//     bit-exact with infer_fixed; tests/nn/test_batch.cpp asserts this
//     across shapes and batch sizes.
//   * After construction, infer/classify perform no heap allocation.
//
// All engines keep a pointer to their network, which must outlive them and
// must not be mutated while the engine is in use.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/network.hpp"
#include "nn/quantize.hpp"

namespace iw::nn {

/// Samples per tile when the caller does not choose: 8 accumulators fit the
/// host's vector registers on both paths (8 doubles, 8 int64).
inline constexpr std::size_t kDefaultBatchTile = 8;
/// Hard cap on the tile size (accumulators live in a fixed on-stack array).
inline constexpr std::size_t kMaxBatchTile = 16;

/// Float batch engine, bit-exact with Network::infer.
class FloatBatch {
 public:
  explicit FloatBatch(const Network& net, std::size_t tile = kDefaultBatchTile);

  const Network& network() const { return *net_; }
  std::size_t tile() const { return tile_; }

  /// `inputs` holds n input rows packed row-major (n * num_inputs() floats);
  /// fills `outputs` (n * num_outputs() floats).
  void infer(std::span<const float> inputs, std::span<float> outputs);
  /// Scattered input rows, each pointing at num_inputs() floats.
  void infer(std::span<const float* const> rows, std::span<float> outputs);
  /// Argmax classification of scattered rows into `labels` (one per row).
  void classify(std::span<const float* const> rows, std::span<std::size_t> labels);

 private:
  const float* run_tile(std::size_t t);

  const Network* net_;
  std::size_t tile_;
  std::size_t stride_;  // widest layer, in activations
  std::vector<float> in_, out_;  // ping-pong tiles, stride_ * tile_ each
};

/// 32-bit fixed-point batch engine, bit-exact with
/// QuantizedNetwork::infer_fixed (same accumulate-shift order, bias add,
/// clip and tanh-LUT evaluation per neuron).
class FixedBatch {
 public:
  explicit FixedBatch(const QuantizedNetwork& net,
                      std::size_t tile = kDefaultBatchTile);

  const QuantizedNetwork& network() const { return *net_; }
  std::size_t tile() const { return tile_; }

  /// `inputs` holds n quantized rows packed row-major; fills `outputs`
  /// (n * num_outputs() fixed values).
  void infer_fixed(std::span<const std::int32_t> inputs,
                   std::span<std::int32_t> outputs);
  /// Quantizes each float row exactly like QuantizedNetwork::quantize_input
  /// (clamp to [-1, 1], round to nearest), runs the fixed pipeline, and takes
  /// the argmax on the fixed outputs — no dequantization anywhere.
  void classify(std::span<const float* const> rows, std::span<std::size_t> labels);

 private:
  const std::int32_t* run_tile(std::size_t t);
  void load_rows(std::span<const float* const> rows, std::size_t base,
                 std::size_t t);

  const QuantizedNetwork* net_;
  std::size_t tile_;
  std::size_t stride_;
  std::vector<std::int32_t> in_, out_;
};

}  // namespace iw::nn
