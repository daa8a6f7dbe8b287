// Batched vs per-sample NN inference throughput.
//
// Measures inferences/sec for the per-sample reference paths (Network::infer,
// QuantizedNetwork::infer_fixed) against the batch engines (FloatBatch /
// FixedBatch) on the paper's Network A and Network B, at batch sizes
// 1/8/64/512. The batch engines are bit-exact with the per-sample paths, so
// the speedup is pure engineering: no per-call allocation, weight rows
// streamed once per tile instead of once per sample, contiguous inner loops
// over samples. Also reports the fleet's label-table gather against batch
// inference on the same test-set picks (the process exits non-zero if any
// gathered label differs).
// Results land in BENCH_nn_batch_throughput.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hostinfo.hpp"
#include "common/simd.hpp"
#include "core/app.hpp"
#include "nn/batch.hpp"
#include "nn/presets.hpp"
#include "report.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Minimum wall time per timed window; long enough to dominate timer noise,
/// short enough that the full grid (2 nets x 2 paths x 4 batch sizes x 2
/// modes) stays around a minute.
constexpr double kMinSeconds = 0.15;
/// Timed windows per measurement; the best window is reported, which filters
/// scheduler noise on loaded (1-core CI) hosts.
constexpr int kRepeats = 3;

constexpr std::size_t kMaxBatch = 512;
const std::vector<std::size_t> kBatchSizes = {1, 8, 64, 512};

/// Runs `body` (one call = `per_call` inferences) in kRepeats timed windows of
/// at least kMinSeconds each and returns the best window's inferences/sec.
template <typename Body>
double measure_ips(std::size_t per_call, Body&& body) {
  // Warm-up call (first call may fault in pages / build lazy state).
  body();
  double best = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      body();
      ++calls;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < kMinSeconds);
    best = std::max(best, static_cast<double>(calls * per_call) / elapsed);
  }
  return best;
}

struct NetInputs {
  std::vector<std::vector<float>> rows;
  std::vector<const float*> row_ptrs;
  std::vector<float> packed_f;
  std::vector<std::int32_t> packed_q32;
};

NetInputs make_inputs(const iw::nn::Network& net,
                      const iw::nn::QuantizedNetwork& qn, iw::Rng& rng) {
  NetInputs in;
  const std::size_t width = net.num_inputs();
  in.rows.resize(kMaxBatch);
  in.packed_f.resize(kMaxBatch * width);
  in.packed_q32.resize(kMaxBatch * width);
  for (std::size_t s = 0; s < kMaxBatch; ++s) {
    auto& row = in.rows[s];
    row.resize(width);
    for (float& v : row) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    in.row_ptrs.push_back(row.data());
    std::copy(row.begin(), row.end(), in.packed_f.begin() + s * width);
    const auto q = qn.quantize_input(row);
    std::copy(q.begin(), q.end(), in.packed_q32.begin() + s * width);
  }
  return in;
}

/// Keeps the optimizer honest: every measured loop folds its outputs in here.
volatile double g_sink = 0.0;

void bench_network(const char* tag, const iw::nn::Network& net,
                   iw::bench::JsonReport& json) {
  const iw::nn::QuantizedNetwork qn = iw::nn::QuantizedNetwork::from(net);
  iw::Rng rng(0xbe5c0000u + static_cast<unsigned>(tag[0]));
  const NetInputs in = make_inputs(net, qn, rng);
  const std::size_t width = net.num_inputs();
  const std::size_t n_out = net.num_outputs();

  iw::nn::FloatBatch fb(net);
  iw::nn::FixedBatch xb(qn);
  std::vector<float> out_f(kMaxBatch * n_out);
  std::vector<std::int32_t> out_q32(kMaxBatch * n_out);

  // Per-sample reference rates (batch size is irrelevant: one call per row).
  const double ps_float = measure_ips(kMaxBatch, [&] {
    double acc = 0.0;
    for (std::size_t s = 0; s < kMaxBatch; ++s) acc += net.infer(in.rows[s])[0];
    g_sink = acc;
  });
  const double ps_q32 = measure_ips(kMaxBatch, [&] {
    std::int64_t acc = 0;
    for (std::size_t s = 0; s < kMaxBatch; ++s) {
      acc += qn.infer_fixed(std::span<const std::int32_t>(
          in.packed_q32.data() + s * width, width))[0];
    }
    g_sink = static_cast<double>(acc);
  });

  std::printf("\n%s: per-sample baseline (inferences/sec)\n", tag);
  std::printf("  float %12.0f   q32 %12.0f\n", ps_float, ps_q32);
  json.add(std::string(tag) + "_persample_float_ips", ps_float);
  json.add(std::string(tag) + "_persample_q32_ips", ps_q32);

  std::printf("  %5s %12s %7s %12s %7s\n", "batch", "float_ips", "x",
              "q32_ips", "x");
  for (const std::size_t b : kBatchSizes) {
    const double bf = measure_ips(b, [&] {
      fb.infer(std::span<const float>(in.packed_f.data(), b * width),
               std::span<float>(out_f.data(), b * n_out));
      g_sink = out_f[0];
    });
    const double bq32 = measure_ips(b, [&] {
      xb.infer_fixed(std::span<const std::int32_t>(in.packed_q32.data(), b * width),
                     std::span<std::int32_t>(out_q32.data(), b * n_out));
      g_sink = static_cast<double>(out_q32[0]);
    });
    std::printf("  %5zu %12.0f %6.2fx %12.0f %6.2fx\n", b, bf, bf / ps_float,
                bq32, bq32 / ps_q32);
    const std::string prefix = std::string(tag) + "_b" + std::to_string(b);
    json.add(prefix + "_float_ips", bf);
    json.add(prefix + "_float_speedup", bf / ps_float);
    json.add(prefix + "_q32_ips", bq32);
    json.add(prefix + "_q32_speedup", bq32 / ps_q32);
  }
}

/// Fleet classification: every detection window the fleet classifies is a
/// row of the app's test set, so it reads the label from the table the app
/// builds once (StressDetectionApp::fixed_test_label) instead of running the
/// network. Compares that gather with batch inference on the same picks;
/// returns false when any label differs.
bool bench_fleet_classify(iw::bench::JsonReport& json) {
  // Small shared app (same shape as iw_fleetd --app's).
  iw::core::AppConfig app_config;
  app_config.dataset.subjects = 2;
  app_config.dataset.minutes_per_level = 2.0;
  app_config.training.max_epochs = 40;
  const iw::core::StressDetectionApp app =
      iw::core::StressDetectionApp::build(app_config);
  const iw::nn::Dataset& test = app.test_set();

  iw::Rng rng(2020);
  std::vector<std::size_t> picks(kMaxBatch);
  std::vector<const float*> rows(kMaxBatch);
  for (std::size_t j = 0; j < kMaxBatch; ++j) {
    picks[j] = static_cast<std::size_t>(rng.uniform_int(test.size()));
    rows[j] = test.inputs[picks[j]].data();
  }
  iw::nn::FixedBatch batch(app.quantized());
  std::vector<std::size_t> labels(kMaxBatch);
  const double batch_ips = measure_ips(kMaxBatch, [&] {
    batch.classify(rows, labels);
    g_sink = static_cast<double>(labels[0]);
  });
  const double gather_ips = measure_ips(kMaxBatch, [&] {
    std::uint64_t counts[3] = {};
    for (const std::size_t pick : picks) ++counts[app.fixed_test_label(pick)];
    g_sink = static_cast<double>(counts[0]);
  });

  bool identical = true;
  for (std::size_t j = 0; j < kMaxBatch; ++j) {
    identical = identical && labels[j] == app.fixed_test_label(picks[j]);
  }
  const double speedup = batch_ips > 0.0 ? gather_ips / batch_ips : 0.0;
  std::printf("\nfleet classification (%zu test-set picks, shared app)\n", kMaxBatch);
  std::printf("  label gather %12.0f picks/sec   batch %12.0f picks/sec"
              "   %6.1fx   labels identical: %s\n",
              gather_ips, batch_ips, speedup, identical ? "yes" : "NO");
  json.add("fleet_gather_picks_per_sec", gather_ips);
  json.add("fleet_batch_picks_per_sec", batch_ips);
  json.add("fleet_gather_speedup", speedup);
  json.add("fleet_labels_identical", identical ? 1.0 : 0.0);
  return identical;
}

}  // namespace

int main() {
  iw::bench::print_header(
      "Batched vs per-sample NN inference (bit-exact engines)");
  iw::bench::JsonReport json("BENCH_nn_batch_throughput.json");
  json.add("cpu_model", iw::hostinfo::cpu_model());
  json.add("cpu_simd_features", iw::hostinfo::cpu_simd_features());
  json.add("simd_tier", iw::simd::tier_name(iw::simd::active_tier()));

  iw::Rng rng_a(42);
  const iw::nn::Network net_a = iw::nn::make_network_a(rng_a);
  bench_network("netA", net_a, json);

  iw::Rng rng_b(47);
  const iw::nn::Network net_b = iw::nn::make_network_b(rng_b);
  bench_network("netB", net_b, json);

  const bool ok = bench_fleet_classify(json);
  json.add("peak_rss_bytes", static_cast<double>(iw::hostinfo::peak_rss_bytes()));
  json.write();
  return ok ? 0 : 1;
}
