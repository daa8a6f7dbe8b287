#include "kernels/runner.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "asmx/assembler.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/feature_kernel.hpp"
#include "kernels/kernel_source.hpp"
#include "rvsim/analysis/analysis.hpp"
#include "rvsim/cluster.hpp"
#include "rvsim/machine.hpp"

namespace iw::kernels {

namespace {

/// Length of one dot-product pass for a layer: word count for the 32-bit
/// kernels, packed pair count for the SIMD ones.
std::uint64_t loop_rows(const nn::Layer& layer) { return layer.n_in; }
std::uint64_t loop_rows(const nn::QuantizedLayer& layer) { return layer.n_in; }
std::uint64_t loop_rows(const nn::QuantizedLayer16& layer) { return layer.row_pairs; }

/// Per-layer placement of weights and ping-pong activation buffers. A weight
/// row is loop_rows() words (32-bit weights, or packed int16 pairs) plus one
/// bias word.
struct Placement {
  std::string layer_table;  // .word lines for the kernel source
  std::vector<std::uint32_t> weight_addrs;
  std::uint32_t output_addr = 0;
  std::size_t n_outputs = 0;
};

template <typename LayerRange>
Placement place_layers(const LayerRange& layers) {
  Placement p;
  std::ostringstream table;
  std::uint32_t w_addr = Layout::kWeights;
  std::uint32_t in_addr = Layout::kAct0;
  std::uint32_t out_addr = Layout::kAct1;
  for (const auto& layer : layers) {
    p.weight_addrs.push_back(w_addr);
    table << "    .word " << loop_rows(layer) << ", " << layer.n_out << ", " << w_addr
          << ", " << in_addr << ", " << out_addr << "\n";
    w_addr += static_cast<std::uint32_t>(4 * (loop_rows(layer) + 1) * layer.n_out);
    std::swap(in_addr, out_addr);
    p.output_addr = in_addr;  // the buffer the layer just wrote
    p.n_outputs = layer.n_out;
  }
  ensure(w_addr <= Layout::kAct0, "kernel runner: network weights do not fit the layout");
  p.layer_table = table.str();
  return p;
}

/// Generator constants of a quantized network (QuantizedNetwork or
/// QuantizedNetwork16).
template <typename Net>
FixedKernelParams kernel_params(const Net& net) {
  FixedKernelParams params;
  params.frac_bits = net.format().frac_bits;
  const fx::TanhTable& table = net.tanh_table();
  params.range_fixed = table.range_fixed();
  params.step_mask = table.step_fixed() - 1;
  params.step_shift = 0;
  while ((1 << params.step_shift) < table.step_fixed()) ++params.step_shift;
  params.n_layers = static_cast<int>(net.layers().size());
  return params;
}

void write_tanh_table(rv::Memory& mem, const fx::TanhTable& table) {
  mem.write_words(Layout::kTanhTable, std::span<const std::int32_t>(table.samples()));
}

void write_fixed_network(rv::Memory& mem, const nn::QuantizedNetwork& net,
                         const Placement& placement) {
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    mem.write_words(placement.weight_addrs[l],
                    std::span<const std::int32_t>(net.layers()[l].weights));
  }
  write_tanh_table(mem, net.tanh_table());
}

void write_simd_network(rv::Memory& mem, const nn::QuantizedNetwork16& net,
                        const Placement& placement,
                        std::span<const std::int16_t> input) {
  write_tanh_table(mem, net.tanh_table());
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    const nn::QuantizedLayer16& layer = net.layers()[l];
    std::uint32_t addr = placement.weight_addrs[l];
    for (std::size_t o = 0; o < layer.n_out; ++o) {
      const std::int16_t* row = layer.weights.data() + o * 2 * layer.row_pairs;
      for (std::size_t pair = 0; pair < layer.row_pairs; ++pair) {
        mem.store16(addr, static_cast<std::uint16_t>(row[2 * pair]));
        mem.store16(addr + 2, static_cast<std::uint16_t>(row[2 * pair + 1]));
        addr += 4;
      }
      mem.store32(addr, static_cast<std::uint32_t>(layer.biases[o]));
      addr += 4;
    }
  }
  for (std::size_t i = 0; i < input.size(); ++i) {
    mem.store16(Layout::kAct0 + static_cast<std::uint32_t>(2 * i),
                static_cast<std::uint16_t>(input[i]));
  }
  if (input.size() % 2 != 0) {
    mem.store16(Layout::kAct0 + static_cast<std::uint32_t>(2 * input.size()), 0);
  }
}

std::vector<std::int16_t> read_simd_outputs(const rv::Memory& mem,
                                            const Placement& placement) {
  std::vector<std::int16_t> out(placement.n_outputs);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::int16_t>(
        mem.load16(placement.output_addr + static_cast<std::uint32_t>(2 * i)));
  }
  return out;
}

/// Loop-bound annotations for a generated MLP kernel: the dot-product inner
/// loop ("inner" in the branchy flavors, "inner_end" for the hardware-loop
/// flavors) and the per-layer neuron loop, both data-dependent (counts are
/// loaded from the layer table), bounded by the largest layer. The outer
/// layer loop needs no annotation: its `li NLAYERS` countdown is proven by
/// the analyzer's constant propagation.
std::map<std::uint32_t, std::uint64_t> mlp_loop_bounds(const asmx::Program& program,
                                                       std::uint64_t inner_iters,
                                                       std::uint64_t neuron_iters) {
  std::map<std::uint32_t, std::uint64_t> bounds;
  if (program.symbols.count("inner")) bounds[program.symbol("inner")] = inner_iters;
  if (program.symbols.count("inner_end")) {
    bounds[program.symbol("inner_end")] = inner_iters;
  }
  bounds[program.symbol("neuron_loop")] = neuron_iters;
  return bounds;
}

/// Largest dot-product length (n_in or row_pairs) and neuron count over the
/// network's layers; `cores` > 1 divides the neuron count the way the
/// parallel kernels split rows (ceil(n_out / cores)).
template <typename LayerRange>
std::pair<std::uint64_t, std::uint64_t> mlp_loop_iters(const LayerRange& layers,
                                                       int cores) {
  std::uint64_t inner = 1;
  std::uint64_t neurons = 1;
  for (const auto& layer : layers) {
    const std::uint64_t rows = loop_rows(layer);
    const std::uint64_t n_out = static_cast<std::uint64_t>(layer.n_out);
    inner = std::max(inner, rows);
    neurons = std::max(
        neurons, (n_out + static_cast<std::uint64_t>(cores) - 1) /
                     static_cast<std::uint64_t>(cores));
  }
  return {inner, neurons};
}

rv::ClusterConfig cluster_config(int num_cores) {
  rv::ClusterConfig cfg;
  cfg.num_cores = num_cores;
  cfg.mem_bytes = Layout::kMemBytes;
  cfg.tcdm_base = Layout::kTanhTable;
  cfg.tcdm_size = static_cast<std::uint32_t>(Layout::kMemBytes) - Layout::kTanhTable;
  cfg.num_banks = 8;  // Mr. Wolf-style word-interleaved shared L1
  cfg.barrier_addr = Layout::kBarrier;
  cfg.stack_bytes = 0x1000;  // kernels do not touch the stack
  return cfg;
}

/// The five MLP kernel generators. The parallel kinds run on a Cluster, the
/// others on a single-core Machine.
enum class KernelKind { kFixed, kParallel, kSimd, kSimdParallel, kFloat };

bool is_cluster(KernelKind kind) {
  return kind == KernelKind::kParallel || kind == KernelKind::kSimdParallel;
}

/// Every input of codegen and of the bounds analysis, compared by value:
/// calls with equal keys assemble the same words and get the same bounds.
/// Weights and inputs are not part of it — they are data written after the
/// program is loaded.
struct KernelKey {
  KernelKind kind = KernelKind::kFixed;
  /// The single-core generator's flavor (kFixed only).
  Flavor flavor = Flavor::kGeneric;
  /// The whole profile, not its name: custom profiles may share a name.
  rv::TimingProfile profile;
  FixedKernelParams params;
  std::string layer_table;
  int cores = 1;
  /// Loop-bound annotations (largest dot-product length and per-core neuron
  /// count); derived from the layer table and the core count.
  std::uint64_t inner_iters = 1;
  std::uint64_t neuron_iters = 1;

  bool operator==(const KernelKey&) const = default;
};

template <typename LayerRange>
KernelKey make_key(KernelKind kind, Flavor flavor, rv::TimingProfile profile,
                   FixedKernelParams params, std::string layer_table,
                   const LayerRange& layers, int cores = 1) {
  ensure(cores >= 1 && cores <= Layout::kClusterCores, "kernel runner: bad core count");
  KernelKey key{kind, flavor, std::move(profile), params, std::move(layer_table), cores};
  if (is_cluster(kind)) key.params.num_cores = cores;
  std::tie(key.inner_iters, key.neuron_iters) = mlp_loop_iters(layers, cores);
  return key;
}

std::string kernel_source(const KernelKey& key) {
  switch (key.kind) {
    case KernelKind::kFixed:
      return fixed_kernel_source(key.flavor, key.params, key.layer_table);
    case KernelKind::kParallel: return parallel_kernel_source(key.params, key.layer_table);
    case KernelKind::kSimd: return simd_kernel_source(key.params, key.layer_table);
    case KernelKind::kSimdParallel:
      return parallel_simd_kernel_source(key.params, key.layer_table);
    case KernelKind::kFloat: return float_kernel_source(key.params.n_layers, key.layer_table);
  }
  fail("kernel_source: bad kernel kind");
}

/// WCET analysis options: the generator's loop-bound annotations plus, for
/// the cluster kinds, the cluster's bank/barrier pessimism.
rv::analysis::AnalyzeOptions analyze_options(const KernelKey& key,
                                             const asmx::Program& program) {
  rv::analysis::AnalyzeOptions options;
  if (is_cluster(key.kind)) {
    const rv::ClusterConfig cfg = cluster_config(key.cores);
    options.cluster_cores = cfg.num_cores;
    options.barrier_wakeup_cycles = cfg.barrier_wakeup_cycles;
  }
  options.loop_bounds = mlp_loop_bounds(program, key.inner_iters, key.neuron_iters);
  return options;
}

/// One assembled kernel image and its static bounds: what a call with a
/// given KernelKey needs besides its own weights and input.
struct CompiledKernel {
  std::vector<std::uint32_t> words;
  std::uint32_t entry = 0;
  /// Loop bounds keyed by the loop-label addresses, cluster pessimism.
  rv::analysis::AnalyzeOptions options;
  std::uint64_t static_min_cycles = 0;
  std::uint64_t static_max_cycles = rv::analysis::kUnboundedCycles;
  std::uint64_t static_stack_bytes = 0;
};

/// Codegen and assembly; the bounds come from the first loaded image.
CompiledKernel compile(const KernelKey& key) {
  const asmx::Program program = asmx::assemble(kernel_source(key));
  ensure(program.end_address() <= Layout::kTanhTable,
         "kernel runner: program overflows layout");
  CompiledKernel kernel;
  kernel.words = program.words;
  kernel.entry = program.symbol("main");
  kernel.options = analyze_options(key, program);
  return kernel;
}

/// The process-wide compile memo. Entries are immutable once published. A
/// miss compiles outside the lock, so threads racing on one key may each
/// compile it; the first to publish is kept (the others are equal to it).
class KernelMemo {
 public:
  std::shared_ptr<const CompiledKernel> find(const KernelKey& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const CompiledKernel> kernel = lookup(key);
    ++(kernel ? stats_.hits : stats_.misses);
    return kernel;
  }

  void publish(const KernelKey& key, CompiledKernel kernel) {
    auto entry = std::make_shared<const CompiledKernel>(std::move(kernel));
    const std::lock_guard<std::mutex> lock(mu_);
    if (lookup(key) == nullptr) entries_.emplace_back(key, std::move(entry));
  }

  KernelMemoStats stats() {
    const std::lock_guard<std::mutex> lock(mu_);
    KernelMemoStats s = stats_;
    s.images = entries_.size();
    return s;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    stats_ = KernelMemoStats{};
  }

 private:
  std::shared_ptr<const CompiledKernel> lookup(const KernelKey& key) const {
    for (const auto& [k, kernel] : entries_) {
      if (k == key) return kernel;
    }
    return nullptr;
  }

  std::mutex mu_;
  std::vector<std::pair<KernelKey, std::shared_ptr<const CompiledKernel>>> entries_;
  KernelMemoStats stats_;
};

KernelMemo& memo() {
  static KernelMemo instance;
  return instance;
}

/// Fills a freshly compiled kernel's bounds from the runner's analysis of
/// `mem`, the loaded image. Throws when the analyzer rejects the image.
void analyze_bounds(const KernelKey& key, CompiledKernel& kernel, rv::Memory& mem) {
  const rv::analysis::AnalysisReport report =
      rv::analysis::analyze(mem, kernel.entry, key.profile, kernel.options);
  ensure(report.ok(), "kernel runner: static analysis rejected the kernel image");
  kernel.static_min_cycles = report.min_cycles;
  kernel.static_max_cycles = report.max_cycles;
  kernel.static_stack_bytes = report.stack_bytes;
}

using DataWriter = std::function<void(rv::Memory&)>;
using OutputReader = std::function<void(const rv::Memory&, KernelRunResult&)>;

/// Runs the kernel for `key` on a fresh Machine or Cluster (so the process
/// trace-mode default applies): loads the compiled image (compiling it on a
/// memo miss), writes this call's weights and input, and runs with the
/// verify_on_load gate armed, so every run is still checked at load time
/// (against the load-analysis cache once the image has been accepted).
KernelRunResult execute(const KernelKey& key, const DataWriter& write_data,
                        const OutputReader& read_outputs) {
  rv::analysis::install_load_verifier();
  const std::shared_ptr<const CompiledKernel> kept = memo().find(key);
  std::optional<CompiledKernel> fresh;
  if (kept == nullptr) fresh.emplace(compile(key));
  const CompiledKernel& kernel = kept ? *kept : *fresh;
  const auto load = [&](auto& sim) {
    sim.load_program(kernel.words);
    write_data(sim.memory());
    sim.set_verify_on_load(true);
    if (fresh) analyze_bounds(key, *fresh, sim.memory());
  };

  KernelRunResult result;
  if (is_cluster(key.kind)) {
    rv::Cluster cluster(key.profile, cluster_config(key.cores));
    load(cluster);
    for (int c = 0; c < key.cores; ++c) cluster.core(c).set_histogram(&result.histogram);
    const rv::ClusterRunResult run = cluster.run(kernel.entry);
    result.cycles = run.cycles;
    result.instructions = run.total_instructions;
    result.bank_conflict_stalls = run.bank_conflict_stalls;
    result.barrier_wait_cycles = run.barrier_wait_cycles;
    read_outputs(cluster.memory(), result);
  } else {
    rv::Machine machine(key.profile, Layout::kMemBytes);
    load(machine);
    machine.core().set_histogram(&result.histogram);
    const rv::RunResult run = machine.run(kernel.entry);
    result.cycles = run.cycles;
    result.instructions = run.instructions;
    read_outputs(machine.memory(), result);
  }
  result.static_min_cycles = kernel.static_min_cycles;
  result.static_max_cycles = kernel.static_max_cycles;
  result.static_stack_bytes = kernel.static_stack_bytes;
  // Kept only once its first call has completed, so a failed call leaves no
  // image behind.
  if (fresh) memo().publish(key, std::move(*fresh));
  return result;
}

KernelRunResult run_fixed(const nn::QuantizedNetwork& net,
                          std::span<const std::int32_t> input, KernelKind kind,
                          Flavor flavor, rv::TimingProfile profile, int cores) {
  ensure(input.size() == net.num_inputs(), "kernel runner: input width mismatch");
  const Placement placement = place_layers(net.layers());
  return execute(
      make_key(kind, flavor, std::move(profile), kernel_params(net), placement.layer_table,
               net.layers(), cores),
      [&](rv::Memory& mem) {
        write_fixed_network(mem, net, placement);
        mem.write_words(Layout::kAct0, input);
      },
      [&](const rv::Memory& mem, KernelRunResult& r) {
        r.outputs_fixed = mem.read_words_i32(placement.output_addr, placement.n_outputs);
      });
}

KernelRunResult run_simd(const nn::QuantizedNetwork16& net,
                         std::span<const std::int16_t> input, KernelKind kind, int cores) {
  ensure(input.size() == net.num_inputs(), "kernel runner: input width mismatch");
  const Placement placement = place_layers(net.layers());
  return execute(
      make_key(kind, Flavor::kRi5cy, rv::ri5cy(), kernel_params(net), placement.layer_table,
               net.layers(), cores),
      [&](rv::Memory& mem) { write_simd_network(mem, net, placement, input); },
      [&](const rv::Memory& mem, KernelRunResult& r) {
        r.outputs_fixed16 = read_simd_outputs(mem, placement);
      });
}

}  // namespace

rv::TimingProfile profile_for(Target target) {
  switch (target) {
    case Target::kCortexM4: return rv::cortex_m4f();
    case Target::kIbex: return rv::ibex();
    case Target::kRi5cySingle: return rv::ri5cy();
    case Target::kRi5cyMulti: return rv::ri5cy();
  }
  fail("profile_for: bad target");
}

std::string target_name(Target target) {
  switch (target) {
    case Target::kCortexM4: return "ARM Cortex-M4";
    case Target::kIbex: return "Mr. Wolf IBEX";
    case Target::kRi5cySingle: return "Mr. Wolf single RI5CY";
    case Target::kRi5cyMulti: return "Mr. Wolf multi RI5CY (8 cores)";
  }
  fail("target_name: bad target");
}

KernelRunResult run_fixed_mlp(const nn::QuantizedNetwork& net,
                              std::span<const std::int32_t> input, Target target) {
  if (target == Target::kRi5cyMulti) {
    return run_fixed_mlp_parallel(net, input, Layout::kClusterCores);
  }
  const Flavor flavor = target == Target::kCortexM4 ? Flavor::kM4
                        : target == Target::kIbex   ? Flavor::kGeneric
                                                    : Flavor::kRi5cy;
  return run_fixed_mlp_custom(net, input, flavor, profile_for(target));
}

KernelRunResult run_fixed_mlp_custom(const nn::QuantizedNetwork& net,
                                     std::span<const std::int32_t> input,
                                     Flavor flavor, const rv::TimingProfile& profile) {
  return run_fixed(net, input, KernelKind::kFixed, flavor, profile, 1);
}

KernelRunResult run_fixed_mlp_parallel(const nn::QuantizedNetwork& net,
                                       std::span<const std::int32_t> input,
                                       int num_cores) {
  return run_fixed(net, input, KernelKind::kParallel, Flavor::kRi5cy, rv::ri5cy(),
                   num_cores);
}

KernelRunResult run_simd_mlp(const nn::QuantizedNetwork16& net,
                             std::span<const std::int16_t> input) {
  return run_simd(net, input, KernelKind::kSimd, 1);
}

KernelRunResult run_simd_mlp_parallel(const nn::QuantizedNetwork16& net,
                                      std::span<const std::int16_t> input,
                                      int num_cores) {
  return run_simd(net, input, KernelKind::kSimdParallel, num_cores);
}

KernelRunResult run_float_mlp(const nn::Network& net, std::span<const float> input) {
  ensure(input.size() == net.num_inputs(), "kernel runner: input width mismatch");
  const Placement placement = place_layers(net.layers());
  FixedKernelParams params;
  params.n_layers = static_cast<int>(net.num_layers());
  return execute(
      make_key(KernelKind::kFloat, Flavor::kM4, rv::cortex_m4f(), params,
               placement.layer_table, net.layers()),
      [&](rv::Memory& mem) {
        for (std::size_t l = 0; l < net.layers().size(); ++l) {
          mem.write_words_f32(placement.weight_addrs[l],
                              std::span<const float>(net.layers()[l].weights));
        }
        mem.write_words_f32(Layout::kAct0, input);
      },
      [&](const rv::Memory& mem, KernelRunResult& r) {
        r.outputs_float = mem.read_words_f32(placement.output_addr, placement.n_outputs);
      });
}

KernelMemoStats kernel_memo_stats() { return memo().stats(); }

void clear_kernel_memo() { memo().clear(); }

std::vector<KernelImage> reference_kernel_images() {
  // A small representative network: lint verdicts depend on the generated
  // code shape, not the layer sizes, and every generator is exercised.
  Rng rng(5);
  const nn::Network net = nn::Network::create({4, 6, 2}, rng);
  const nn::QuantizedNetwork qn = nn::QuantizedNetwork::from(net);
  const nn::QuantizedNetwork16 qn16 = nn::QuantizedNetwork16::from(net);

  const std::string table = place_layers(qn.layers()).layer_table;
  const std::string simd_table = place_layers(qn16.layers()).layer_table;
  const FixedKernelParams params = kernel_params(qn);
  const FixedKernelParams sparams = kernel_params(qn16);
  constexpr int kCores = Layout::kClusterCores;

  std::vector<KernelImage> images;
  const auto add = [&images](std::string name, const KernelKey& key, bool xpulp) {
    KernelImage image;
    image.name = std::move(name);
    image.profile = key.profile;
    image.program = asmx::assemble(kernel_source(key));
    image.entry = image.program.symbol("main");
    image.expect_reject_on_ibex = xpulp;
    image.analyze_options = analyze_options(key, image.program);
    images.push_back(std::move(image));
  };
  using K = KernelKind;
  add("mlp-fixed-generic",
      make_key(K::kFixed, Flavor::kGeneric, rv::ibex(), params, table, qn.layers()), false);
  add("mlp-fixed-m4",
      make_key(K::kFixed, Flavor::kM4, rv::cortex_m4f(), params, table, qn.layers()), true);
  add("mlp-fixed-ri5cy",
      make_key(K::kFixed, Flavor::kRi5cy, rv::ri5cy(), params, table, qn.layers()), true);
  add("mlp-fixed-parallel",
      make_key(K::kParallel, Flavor::kRi5cy, rv::ri5cy(), params, table, qn.layers(), kCores),
      true);
  add("mlp-float-m4f",
      make_key(K::kFloat, Flavor::kM4, rv::cortex_m4f(), params, table, net.layers()), true);
  add("mlp-simd-ri5cy",
      make_key(K::kSimd, Flavor::kRi5cy, rv::ri5cy(), sparams, simd_table, qn16.layers()),
      true);
  add("mlp-simd-parallel",
      make_key(K::kSimdParallel, Flavor::kRi5cy, rv::ri5cy(), sparams, simd_table,
               qn16.layers(), kCores),
      true);

  // The feature kernels' data-dependent loops are annotated at the runner's
  // layout caps (<= 2000 RR intervals, <= 12000 GSR samples).
  const auto add_feature = [&images](std::string name, const std::string& source,
                                     const std::string& loop, std::uint64_t bound) {
    KernelImage image;
    image.name = std::move(name);
    image.profile = rv::ri5cy();
    image.program = asmx::assemble(source);
    image.entry = image.program.symbol("main");
    image.mem_bytes = std::size_t{1} << 16;
    image.expect_reject_on_ibex = true;
    image.analyze_options.loop_bounds[image.program.symbol(loop)] = bound;
    images.push_back(std::move(image));
  };
  add_feature("hrv-ri5cy", hrv_kernel_source(), "diff_end", 1999);
  add_feature("gsr-ri5cy", gsr_kernel_source(), "sample_loop", 11996);
  return images;
}

}  // namespace iw::kernels
