// iss_kernels: kernels::run_fixed_mlp, the Table III harness, on all four
// targets for Network A (the deployed 5-50-50-3) and Network B, one thread.
//
// A Net A call is dominated by per-call work: kernel source generation,
// assembly and two static analyses of the image (the runner's explicit
// analyze() for the cycle bounds, then the verify-on-load gate inside run()),
// plus trace certification. A Net B call is dominated by execution. The call
// mix below gives the two nets comparable host time, so a change to either
// half moves the pass time.
//
// Untraced passes call run_fixed_mlp. Traced passes replay it from this file
// through the public entry points (fixed/parallel_kernel_source,
// asmx::assemble, rv::analysis::analyze, Machine::run / Cluster::run), and
// time the verify-on-load and trace-certification analyses by installing
// timing wrappers around rv::analysis::verify_or_throw and certify as the
// simulator's hooks. Execution time is reported as the run() span minus
// those two. The replay's cycles, instruction counts and outputs must equal
// run_fixed_mlp's.
#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <utility>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/runner.hpp"
#include "nn/presets.hpp"
#include "rvsim/cluster.hpp"
#include "rvsim/machine.hpp"
#include "rvsim/trace.hpp"
#include "rvsim/verify_hook.hpp"

namespace perfbench {
namespace {

using iw::kernels::KernelRunResult;
using iw::kernels::Layout;
using iw::kernels::Target;
using iw::nn::QuantizedNetwork;

constexpr std::array<Target, 4> kTargets = {Target::kCortexM4, Target::kIbex,
                                            Target::kRi5cySingle, Target::kRi5cyMulti};
constexpr std::array<const char*, 4> kTargetKeys = {"cortex_m4", "ibex", "ri5cy",
                                                    "ri5cy_multi8"};
/// Net A calls per Net B call and target: balances the two nets' host time.
constexpr int kNetACalls = 10;
/// Setup repetitions before the timed phase, and again after it. A setup
/// takes about 0.1 s (shared 4-core Xeon VM), short enough that the fastest
/// of 12 still moved by 30% between runs; the fastest of 60 costs about 6 s.
constexpr int kSetupReps = 30;

/// Paper Table III cycles, by target then net (A, B).
constexpr double kPaperCycles[4][2] = {
    {30210, 902763}, {40661, 955588}, {22772, 519354}, {6126, 108316}};

struct Net {
  const char* key;
  QuantizedNetwork q;
  std::vector<std::vector<std::int32_t>> inputs;
  std::vector<std::vector<std::int32_t>> expected;  // host reference outputs
};

Net make_net(const char* key, const iw::nn::Network& net, iw::Rng& in_rng, int inputs) {
  Net n{key, QuantizedNetwork::from(net), {}, {}};
  for (int i = 0; i < inputs; ++i) {
    std::vector<float> raw(net.num_inputs());
    for (float& v : raw) v = static_cast<float>(in_rng.uniform(-1.0, 1.0));
    n.inputs.push_back(n.q.quantize_input(raw));
    n.expected.push_back(n.q.infer_fixed(n.inputs.back()));
  }
  return n;
}

// ---------------------------------------------------------------------------
// Replay of run_fixed_mlp (src/kernels/runner.cpp): same layout, kernel
// parameters, loop-bound annotations and cluster configuration.
// ---------------------------------------------------------------------------

/// Span totals the simulator hooks add to while a traced call runs.
Spans* g_hook_spans = nullptr;

void timed_verify(iw::rv::Memory& mem, std::uint32_t entry,
                  const iw::rv::TimingProfile& profile) {
  Span span(*g_hook_spans, "iss.verify_s");
  iw::rv::analysis::verify_or_throw(mem, entry, profile);
}

iw::rv::CodeCertificate timed_certify(iw::rv::Memory& mem, std::uint32_t entry,
                                      const iw::rv::TimingProfile& profile) {
  Span span(*g_hook_spans, "iss.certify_s");
  return iw::rv::analysis::certify(mem, entry, profile);
}

struct IssTrace {
  Spans spans;
  std::uint64_t instructions = 0;
  std::uint64_t compiled = 0;
  std::uint64_t invalidated = 0;
  std::uint64_t declined = 0;
};

struct Placement {
  std::string table;
  std::vector<std::uint32_t> weight_addrs;
  std::uint32_t output_addr = 0;
  std::size_t n_outputs = 0;
};

Placement place(const QuantizedNetwork& net) {
  Placement p;
  std::ostringstream table;
  std::uint32_t w = Layout::kWeights;
  std::uint32_t in = Layout::kAct0;
  std::uint32_t out = Layout::kAct1;
  for (const auto& layer : net.layers()) {
    p.weight_addrs.push_back(w);
    table << "    .word " << layer.n_in << ", " << layer.n_out << ", " << w << ", " << in
          << ", " << out << "\n";
    w += static_cast<std::uint32_t>(4 * (layer.n_in + 1) * layer.n_out);
    std::swap(in, out);
    p.output_addr = in;
    p.n_outputs = layer.n_out;
  }
  p.table = table.str();
  return p;
}

iw::kernels::FixedKernelParams kernel_params(const QuantizedNetwork& net) {
  iw::kernels::FixedKernelParams params;
  params.frac_bits = net.format().frac_bits;
  params.range_fixed = net.tanh_table().range_fixed();
  params.step_mask = net.tanh_table().step_fixed() - 1;
  while ((1 << params.step_shift) < net.tanh_table().step_fixed()) ++params.step_shift;
  params.n_layers = static_cast<int>(net.layers().size());
  return params;
}

iw::rv::analysis::AnalyzeOptions loop_bounds(const iw::asmx::Program& program,
                                             const QuantizedNetwork& net, int cores) {
  std::uint64_t inner = 1;
  std::uint64_t neurons = 1;
  for (const auto& layer : net.layers()) {
    inner = std::max<std::uint64_t>(inner, layer.n_in);
    neurons = std::max<std::uint64_t>(
        neurons, (layer.n_out + static_cast<std::size_t>(cores) - 1) /
                     static_cast<std::size_t>(cores));
  }
  iw::rv::analysis::AnalyzeOptions options;
  for (const char* head : {"inner", "inner_end"}) {
    if (program.symbols.count(head)) options.loop_bounds[program.symbol(head)] = inner;
  }
  options.loop_bounds[program.symbol("neuron_loop")] = neurons;
  return options;
}

void write_network(iw::rv::Memory& mem, const QuantizedNetwork& net, const Placement& p,
                   std::span<const std::int32_t> input) {
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    mem.write_words(p.weight_addrs[l], std::span<const std::int32_t>(net.layers()[l].weights));
  }
  mem.write_words(Layout::kTanhTable, std::span<const std::int32_t>(net.tanh_table().samples()));
  mem.write_words(Layout::kAct0, input);
}

/// Spans around run(): adds its self time (minus the hooks) to `exec_key`.
template <typename Run>
auto timed_run(IssTrace& t, const std::string& exec_key, Run&& run) {
  const double hooks0 = t.spans.get("iss.verify_s") + t.spans.get("iss.certify_s");
  const auto t0 = Clock::now();
  auto result = run();
  const double span = seconds_since(t0);
  const double hooks = t.spans.get("iss.verify_s") + t.spans.get("iss.certify_s") - hooks0;
  t.spans.add(exec_key, span - hooks);
  t.spans.add("iss.exec_s", span - hooks);
  return result;
}

void add_trace_stats(IssTrace& t, iw::rv::TraceSpace* space) {
  if (space == nullptr) return;
  t.compiled += space->stats().compiled;
  t.invalidated += space->stats().invalidated;
  t.declined += space->stats().declined;
}

KernelRunResult traced_call(const Net& net, std::size_t input, Target target,
                            const std::string& exec_key, IssTrace& t) {
  const Placement placement = place(net.q);
  const iw::kernels::FixedKernelParams params = kernel_params(net.q);
  iw::asmx::Program program;
  {
    Span span(t.spans, "iss.codegen_s");
    const std::string source =
        target == Target::kRi5cyMulti
            ? iw::kernels::parallel_kernel_source(params, placement.table)
            : iw::kernels::fixed_kernel_source(
                  target == Target::kCortexM4 ? iw::kernels::Flavor::kM4
                  : target == Target::kIbex   ? iw::kernels::Flavor::kGeneric
                                              : iw::kernels::Flavor::kRi5cy,
                  params, placement.table);
    program = iw::asmx::assemble(source);
  }
  const std::uint32_t entry = program.symbol("main");
  KernelRunResult result;
  const auto analyze = [&](iw::rv::Memory& mem, const iw::rv::TimingProfile& profile,
                           const iw::rv::analysis::AnalyzeOptions& options) {
    Span span(t.spans, "iss.analyze_s");
    const auto report = iw::rv::analysis::analyze(mem, entry, profile, options);
    iw::ensure(report.ok(), "replay: static analysis rejected the kernel image");
    result.static_min_cycles = report.min_cycles;
    result.static_max_cycles = report.max_cycles;
  };
  if (target == Target::kRi5cyMulti) {
    iw::rv::ClusterConfig cfg;
    cfg.num_cores = Layout::kClusterCores;
    cfg.mem_bytes = Layout::kMemBytes;
    cfg.tcdm_base = Layout::kTanhTable;
    cfg.tcdm_size = static_cast<std::uint32_t>(Layout::kMemBytes) - Layout::kTanhTable;
    cfg.num_banks = 8;
    cfg.barrier_addr = Layout::kBarrier;
    cfg.stack_bytes = 0x1000;
    iw::rv::Cluster cluster(iw::kernels::profile_for(target), cfg);
    cluster.load_program(program.words);
    write_network(cluster.memory(), net.q, placement, net.inputs[input]);
    for (int c = 0; c < cfg.num_cores; ++c) cluster.core(c).set_histogram(&result.histogram);
    cluster.set_verify_on_load(true);
    auto options = loop_bounds(program, net.q, cfg.num_cores);
    options.cluster_cores = cfg.num_cores;
    options.barrier_wakeup_cycles = cfg.barrier_wakeup_cycles;
    analyze(cluster.memory(), cluster.core(0).profile(), options);
    const auto run = timed_run(t, exec_key, [&] { return cluster.run(entry); });
    result.cycles = run.cycles;
    result.instructions = run.total_instructions;
    result.outputs_fixed =
        cluster.memory().read_words_i32(placement.output_addr, placement.n_outputs);
    add_trace_stats(t, cluster.trace_space());
  } else {
    iw::rv::Machine machine(iw::kernels::profile_for(target), Layout::kMemBytes);
    machine.load_program(program.words);
    write_network(machine.memory(), net.q, placement, net.inputs[input]);
    machine.core().set_histogram(&result.histogram);
    machine.set_verify_on_load(true);
    analyze(machine.memory(), machine.core().profile(), loop_bounds(program, net.q, 1));
    const auto run = timed_run(t, exec_key, [&] { return machine.run(entry); });
    result.cycles = run.cycles;
    result.instructions = run.instructions;
    result.outputs_fixed =
        machine.memory().read_words_i32(placement.output_addr, placement.n_outputs);
    add_trace_stats(t, machine.trace_space());
  }
  t.instructions += result.instructions;
  return result;
}

std::string pair_key(std::size_t target, const Net& net) {
  return std::string(kTargetKeys[target]) + "." + net.key;
}

}  // namespace

LayerMetrics iss_layer_metrics() {
  LayerMetrics m;
  for (const char* name : {"iss.codegen_s", "iss.analyze_s", "iss.verify_s", "iss.certify_s",
                           "iss.other_s"}) {
    m[name] = "s";
  }
  for (const char* target : kTargetKeys) {
    for (const char* net : {"net_a", "net_b"}) {
      const std::string key = std::string(target) + "." + net;
      m["iss.exec_s." + key] = "s";
      m["iss.sim_cycles." + key] = "cycles";
      m["iss.table3_err." + key] = "ratio";
    }
  }
  m["iss.exec_mips"] = "MIPS";
  for (const char* name : {"iss.sim_instructions", "iss.trace_compiled", "iss.trace_invalidated",
                           "iss.trace_declined"}) {
    m[name] = "count";
  }
  m["trace.overhead_frac"] = "ratio";
  return m;
}

Result run_iss_kernels(const Options& o) {
  Result r;
  std::vector<Net> nets;
  const bool trace_default = iw::rv::default_trace_mode();

  // Setup: networks and inputs from the seed, host reference outputs, the
  // trace == interpreter gate once per (target, net), the Table III preset
  // cells, and one warm-up pass's worth of calls.
  const auto setup = [&] {
    nets.clear();
    iw::Rng weights(o.seed);
    iw::Rng inputs(o.seed ^ 0x5eed5eed5eedULL);
    nets.push_back(make_net("net_a", iw::nn::make_network_a(weights), inputs, kNetACalls));
    nets.push_back(make_net("net_b", iw::nn::make_network_b(weights), inputs, 1));
    for (std::size_t ti = 0; ti < kTargets.size(); ++ti) {
      for (const Net& net : nets) {
        iw::rv::set_default_trace_mode(false);
        const auto interp = iw::kernels::run_fixed_mlp(net.q, net.inputs[0], kTargets[ti]);
        iw::rv::set_default_trace_mode(true);
        const auto traced = iw::kernels::run_fixed_mlp(net.q, net.inputs[0], kTargets[ti]);
        iw::rv::set_default_trace_mode(trace_default);
        if (interp.cycles != traced.cycles || interp.instructions != traced.instructions ||
            interp.outputs_fixed != traced.outputs_fixed) {
          r.fail("trace != interpreter on " + pair_key(ti, net));
        }
      }
    }
    // Table III presets: the networks and input pinned by
    // tests/kernels/test_table3_regression.cpp.
    for (int n = 0; n < 2; ++n) {
      iw::Rng rng(static_cast<std::uint64_t>(n + 1));
      const iw::nn::Network preset =
          n == 0 ? iw::nn::make_network_a(rng) : iw::nn::make_network_b(rng);
      const QuantizedNetwork q = QuantizedNetwork::from(preset);
      std::vector<float> raw(preset.num_inputs());
      iw::Rng in_rng(2020);
      for (float& v : raw) v = static_cast<float>(in_rng.uniform(-1.0, 1.0));
      const auto input = q.quantize_input(raw);
      for (std::size_t ti = 0; ti < kTargets.size(); ++ti) {
        const std::uint64_t cycles = iw::kernels::run_fixed_mlp(q, input, kTargets[ti]).cycles;
        const std::string key = std::string(kTargetKeys[ti]) + (n == 0 ? ".net_a" : ".net_b");
        const double paper = kPaperCycles[ti][n];
        r.metric("iss.sim_cycles." + key, static_cast<double>(cycles), "cycles");
        r.metric("iss.table3_err." + key, std::abs(static_cast<double>(cycles) - paper) / paper,
                 "ratio");
        r.count("table3.cycles." + key, cycles);
      }
    }
    for (std::size_t ti = 0; ti < kTargets.size(); ++ti) {
      for (const Net& net : nets) iw::kernels::run_fixed_mlp(net.q, net.inputs[0], kTargets[ti]);
    }
  };
  std::vector<double> setup_s;
  time_setup(kSetupReps, setup, setup_s);

  // One pass: for every target, each Net A input once, then Net B once.
  std::uint64_t calls = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  const auto verify = [&](const KernelRunResult& k, const Net& net, std::size_t input,
                          std::size_t ti) {
    ++calls;
    instructions += k.instructions;
    cycles += k.cycles;
    if (k.outputs_fixed != net.expected[input]) {
      r.fail("outputs differ from QuantizedNetwork::infer_fixed on " + pair_key(ti, net));
    }
    if (k.cycles < k.static_min_cycles || k.cycles > k.static_max_cycles) {
      r.fail("cycles outside the static bounds on " + pair_key(ti, net));
    }
  };
  const auto pass_with = [&](auto&& call) {
    return [&, call](int) {
      calls = instructions = cycles = 0;
      for (std::size_t ti = 0; ti < kTargets.size(); ++ti) {
        for (const Net& net : nets) {
          for (std::size_t i = 0; i < net.inputs.size(); ++i) {
            verify(call(net, i, ti), net, i, ti);
          }
        }
      }
    };
  };
  const auto count_pass = [&] {
    r.count("iss.calls", calls);
    r.count("iss.sim_instructions", instructions);
    r.count("iss.sim_cycles", cycles);
  };
  const auto product = pass_with([](const Net& net, std::size_t i, std::size_t ti) {
    return iw::kernels::run_fixed_mlp(net.q, net.inputs[i], kTargets[ti]);
  });

  if (!o.trace) {
    const auto passes = timed_passes(o.seconds, 3, product, count_pass);
    r.attempted += calls * passes.size();
    time_setup(kSetupReps, setup, setup_s);
    report_end_to_end(r, setup_s, passes, static_cast<double>(calls));
    r.metric("iss_mips", static_cast<double>(instructions) / r.metrics["wall_s"].value / 1e6,
             "MIPS");
    return r;
  }

  const auto plain = timed_passes(o.seconds / 3.0, 3, product, count_pass);
  r.attempted += calls * plain.size();
  IssTrace t;
  std::array<std::uint64_t, 4> totals{};  // instructions, compiled, invalidated, declined
  g_hook_spans = &t.spans;
  iw::rv::set_program_verifier(&timed_verify);
  iw::rv::set_code_analyzer(&timed_certify);
  const auto traced = timed_passes(
      o.seconds - sum(plain), 3,
      pass_with([&t](const Net& net, std::size_t i, std::size_t ti) {
        return traced_call(net, i, kTargets[ti], "iss.exec_s." + pair_key(ti, net), t);
      }),
      [&] {
        count_pass();
        r.count("iss.trace_compiled", t.compiled);
        r.count("iss.trace_invalidated", t.invalidated);
        r.count("iss.trace_declined", t.declined);
        const std::array<std::uint64_t, 4> pass = {t.instructions, t.compiled, t.invalidated,
                                                   t.declined};
        for (std::size_t i = 0; i < totals.size(); ++i) totals[i] += pass[i];
        t.instructions = t.compiled = t.invalidated = t.declined = 0;
      });
  iw::rv::analysis::install_load_verifier();
  g_hook_spans = nullptr;
  r.attempted += calls * traced.size();

  const double k = 1.0 / static_cast<double>(traced.size());
  double attributed = 0.0;
  for (const char* name : {"iss.codegen_s", "iss.analyze_s", "iss.verify_s", "iss.certify_s"}) {
    r.metric(name, t.spans.get(name) * k, "s");
    attributed += t.spans.get(name);
  }
  for (std::size_t ti = 0; ti < kTargets.size(); ++ti) {
    for (const Net& net : nets) {
      const std::string key = "iss.exec_s." + pair_key(ti, net);
      r.metric(key, t.spans.get(key) * k, "s");
    }
  }
  attributed += t.spans.get("iss.exec_s");
  r.metric("iss.other_s", (sum(traced) - attributed) * k, "s");
  r.metric("iss.exec_mips",
           static_cast<double>(totals[0]) / t.spans.get("iss.exec_s") / 1e6, "MIPS");
  r.metric("iss.sim_instructions", static_cast<double>(totals[0]) * k, "count");
  r.metric("iss.trace_compiled", static_cast<double>(totals[1]) * k, "count");
  r.metric("iss.trace_invalidated", static_cast<double>(totals[2]) * k, "count");
  r.metric("iss.trace_declined", static_cast<double>(totals[3]) * k, "count");
  r.metric("trace.overhead_frac", overhead(plain, traced), "ratio");
  return r;
}

}  // namespace perfbench
