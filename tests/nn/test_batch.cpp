// Bit-exactness of the batch engines against the per-sample reference paths,
// across layer shapes (odd widths, single-neuron layers), batch sizes that
// cover partial tiles (1 and 513), and the paper's Network A/B presets.
#include "nn/batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "nn/presets.hpp"
#include "nn/quantize16.hpp"

namespace iw::nn {
namespace {

std::vector<std::vector<float>> random_rows(std::size_t n, std::size_t width,
                                            Rng& rng) {
  std::vector<std::vector<float>> rows(n);
  for (auto& row : rows) {
    row.resize(width);
    // Spill slightly outside [-1, 1] so the classify paths also exercise
    // input clamping.
    for (float& v : row) v = static_cast<float>(rng.uniform(-1.2, 1.2));
  }
  return rows;
}

std::vector<const float*> pointers(const std::vector<std::vector<float>>& rows) {
  std::vector<const float*> ptrs(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) ptrs[i] = rows[i].data();
  return ptrs;
}

/// Odd input widths, single-neuron hidden and output layers, plus a plain
/// even-width net.
const std::vector<std::vector<std::size_t>> kShapes = {
    {3, 2},           // odd input width
    {5, 1, 4},        // single-neuron hidden layer (odd too)
    {4, 3, 1},        // single-neuron output
    {6, 8, 4},        // all even
    {7, 5, 3, 2},     // chain of odd widths
};

void expect_float_bit_exact(const Network& net, std::size_t n, std::uint64_t seed,
                            std::size_t tile) {
  Rng rng(seed);
  const auto rows = random_rows(n, net.num_inputs(), rng);
  FloatBatch batch(net, tile);

  std::vector<float> outputs(n * net.num_outputs());
  batch.infer(pointers(rows), outputs);
  std::vector<std::size_t> labels(n);
  batch.classify(pointers(rows), labels);

  // Packed-row entry point must agree with the scattered-row one.
  std::vector<float> packed(n * net.num_inputs());
  for (std::size_t s = 0; s < n; ++s) {
    std::copy(rows[s].begin(), rows[s].end(),
              packed.begin() + static_cast<std::ptrdiff_t>(s * net.num_inputs()));
  }
  std::vector<float> outputs_packed(outputs.size());
  batch.infer(packed, outputs_packed);
  EXPECT_EQ(outputs, outputs_packed);

  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<float> ref = net.infer(rows[s]);
    for (std::size_t o = 0; o < ref.size(); ++o) {
      ASSERT_EQ(outputs[s * ref.size() + o], ref[o])
          << "sample " << s << " output " << o;
    }
    ASSERT_EQ(labels[s], net.classify(rows[s])) << "sample " << s;
  }
}

void expect_fixed_bit_exact(const Network& net, std::size_t n, std::uint64_t seed,
                            std::size_t tile) {
  const QuantizedNetwork qn = QuantizedNetwork::from(net);
  Rng rng(seed);
  const auto rows = random_rows(n, net.num_inputs(), rng);
  FixedBatch batch(qn, tile);

  std::vector<std::int32_t> packed(n * qn.num_inputs());
  for (std::size_t s = 0; s < n; ++s) {
    const auto q = qn.quantize_input(rows[s]);
    std::copy(q.begin(), q.end(),
              packed.begin() + static_cast<std::ptrdiff_t>(s * qn.num_inputs()));
  }
  std::vector<std::int32_t> outputs(n * qn.num_outputs());
  batch.infer_fixed(packed, outputs);
  std::vector<std::size_t> labels(n);
  batch.classify(pointers(rows), labels);

  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<std::int32_t> ref = qn.infer_fixed(
        std::span<const std::int32_t>(packed.data() + s * qn.num_inputs(),
                                      qn.num_inputs()));
    for (std::size_t o = 0; o < ref.size(); ++o) {
      ASSERT_EQ(outputs[s * ref.size() + o], ref[o])
          << "sample " << s << " output " << o;
    }
    ASSERT_EQ(labels[s], qn.classify(rows[s])) << "sample " << s;
  }
}

TEST(BatchFloat, BitExactAcrossShapesAndBatchSizes) {
  std::uint64_t seed = 100;
  for (const auto& shape : kShapes) {
    Rng rng(seed);
    const Network net = Network::create(shape, rng);
    for (const std::size_t n : {std::size_t{1}, std::size_t{513}}) {
      expect_float_bit_exact(net, n, seed + 1, kDefaultBatchTile);
    }
    ++seed;
  }
}

TEST(BatchFixed32, BitExactAcrossShapesAndBatchSizes) {
  std::uint64_t seed = 200;
  for (const auto& shape : kShapes) {
    Rng rng(seed);
    const Network net = Network::create(shape, rng);
    for (const std::size_t n : {std::size_t{1}, std::size_t{513}}) {
      expect_fixed_bit_exact(net, n, seed + 1, kDefaultBatchTile);
    }
    ++seed;
  }
}

TEST(Batch, OddTileSizesStayBitExact) {
  // Tiles that do not divide the batch exercise the partial-tile path on
  // every call; tile 1 degenerates to per-sample order.
  Rng rng(400);
  const Network net = Network::create({5, 9, 3}, rng);
  for (const std::size_t tile : {std::size_t{1}, std::size_t{3}, std::size_t{13}}) {
    expect_float_bit_exact(net, 29, 401, tile);
    expect_fixed_bit_exact(net, 29, 402, tile);
  }
}

TEST(Batch, NetworkAPresetBitExact) {
  Rng rng(42);
  const Network net = make_network_a(rng);
  expect_float_bit_exact(net, 513, 43, kDefaultBatchTile);
  expect_fixed_bit_exact(net, 513, 44, kDefaultBatchTile);
}

TEST(Batch, NetworkBPresetBitExact) {
  Rng rng(47);
  const Network net = make_network_b(rng);
  // Network B is ~81k weights; keep the sample count moderate but still
  // cover a partial final tile.
  expect_float_bit_exact(net, 27, 48, kDefaultBatchTile);
  expect_fixed_bit_exact(net, 27, 49, kDefaultBatchTile);
}

TEST(Batch, RejectsMismatchedSpans) {
  Rng rng(500);
  const Network net = Network::create({4, 2}, rng);
  FloatBatch batch(net);
  std::vector<float> in(4 * 3 + 1);  // not a whole number of rows
  std::vector<float> out(2 * 3);
  EXPECT_THROW(batch.infer(std::span<const float>(in), std::span<float>(out)),
               Error);
  std::vector<float> in_ok(4 * 3);
  std::vector<float> out_bad(2 * 2);  // wrong batch size
  EXPECT_THROW(
      batch.infer(std::span<const float>(in_ok), std::span<float>(out_bad)),
      Error);
  EXPECT_THROW(FloatBatch(net, 0), Error);
  EXPECT_THROW(FloatBatch(net, kMaxBatchTile + 1), Error);
}

TEST(Batch, WorkspaceReuseAcrossCallsIsClean) {
  // Run a large batch, then a batch of one, then the large batch again: any
  // state leaking between calls would corrupt the repeat.
  Rng rng(600);
  const Network net = Network::create({5, 8, 3}, rng);
  const QuantizedNetwork qn = QuantizedNetwork::from(net);
  FixedBatch batch(qn);
  Rng data_rng(601);
  const auto rows = random_rows(65, 5, data_rng);
  std::vector<std::size_t> first(65), again(65), single(1);
  batch.classify(pointers(rows), first);
  const std::vector<const float*> one{rows[7].data()};
  batch.classify(one, single);
  batch.classify(pointers(rows), again);
  EXPECT_EQ(first, again);
  EXPECT_EQ(single[0], first[7]);
}

TEST(ClassifyFixed, MatchesFloatDetourArgmax) {
  // The satellite fix: classify must pick the same class the old
  // quantize->infer->dequantize->argmax detour picked.
  Rng rng(700);
  const Network net = Network::create({5, 12, 3}, rng);
  const QuantizedNetwork qn = QuantizedNetwork::from(net);
  const QuantizedNetwork16 q16 = QuantizedNetwork16::from(net);
  Rng data_rng(701);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> input(5);
    for (float& v : input) v = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    const std::vector<float> out = qn.infer(input);
    EXPECT_EQ(qn.classify(input), argmax(std::span<const float>(out)));
    EXPECT_EQ(qn.classify_fixed(qn.quantize_input(input)), qn.classify(input));
    const std::vector<float> out16 = q16.infer(input);
    EXPECT_EQ(q16.classify(input), argmax(std::span<const float>(out16)));
  }
}

TEST(Argmax, TiesResolveToLowestIndex) {
  const std::vector<std::int32_t> v{3, 7, 7, 1};
  EXPECT_EQ(argmax(std::span<const std::int32_t>(v)), 1u);
  const std::vector<float> single{2.5f};
  EXPECT_EQ(argmax(std::span<const float>(single)), 0u);
}

}  // namespace
}  // namespace iw::nn
