#include "kernels/feature_kernel.hpp"

#include <algorithm>
#include <string>

#include "asmx/assembler.hpp"
#include "common/error.hpp"
#include "rvsim/analysis/analysis.hpp"
#include "rvsim/machine.hpp"

namespace iw::kernels {

namespace {

/// Exact floor(sqrt(x)) via the restoring bitwise algorithm (matches the
/// kernel's isqrt routine bit for bit).
std::int32_t isqrt(std::uint32_t x) {
  std::uint32_t res = 0;
  std::uint32_t bit = 1u << 30;
  while (bit > x) bit >>= 2;
  while (bit != 0) {
    if (x >= res + bit) {
      x -= res + bit;
      res = (res >> 1) + bit;
    } else {
      res >>= 1;
    }
    bit >>= 2;
  }
  return static_cast<std::int32_t>(res);
}

constexpr std::uint32_t kRrAddr = 0x1000;
constexpr std::uint32_t kCountAddr = 0x0F00;
constexpr std::uint32_t kOutAddr = 0x0F10;

const char* kKernelSource = R"(
    .equ RR, 0x1000
    .equ COUNT, 0xF00
    .equ OUT, 0xF10
main:
    li s0, RR
    li t5, COUNT
    lw s1, 0(t5)
    addi s1, s1, -1         # m = n - 1 successive differences
    li t0, 0                # sum of squared differences
    li t1, 0                # sum of differences
    li s3, 0                # nn50 count
    li s2, 50               # NN50 threshold (ms)
    lw t2, 0(s0)            # previous interval
    addi s0, s0, 4
    lp.setup 0, s1, diff_end
    p.lw t3, 4(s0!)
    sub t4, t3, t2          # d = rr[i] - rr[i-1]
    mv t2, t3
    add t1, t1, t4
    mul t6, t4, t4
    add t0, t0, t6
    p.abs a3, t4            # |d| (Xpulp single-cycle abs)
    slt a4, s2, a3          # 1 when |d| > 50
    add s3, s3, a4
diff_end:
    div a0, t0, s1          # mean of squares
    slli a0, a0, 8
    call isqrt              # rmssd in Q4 ms
    mv s4, a0
    div a0, t0, s1
    div a1, t1, s1          # mean difference
    mul a1, a1, a1
    sub a0, a0, a1          # variance (integer approximation)
    bgez a0, var_ok
    li a0, 0
var_ok:
    slli a0, a0, 8
    call isqrt              # sdsd in Q4 ms
    li t5, OUT
    sw s4, 0(t5)
    sw a0, 4(t5)
    sw s3, 8(t5)
    ecall

# restoring integer square root: a0 = floor(sqrt(a0)) * 16 for Q8 inputs
isqrt:
    li t3, 0                # result
    li t2, 0x40000000       # bit
isqrt_adjust:
    bleu t2, a0, isqrt_loop
    srli t2, t2, 2
    bnez t2, isqrt_adjust
isqrt_loop:
    beqz t2, isqrt_done
    add t4, t3, t2
    bltu a0, t4, isqrt_skip
    sub a0, a0, t4
    srli t3, t3, 1
    add t3, t3, t2
    j isqrt_next
isqrt_skip:
    srli t3, t3, 1
isqrt_next:
    srli t2, t2, 2
    bnez t2, isqrt_loop
isqrt_done:
    mv a0, t3
    ret
)";

}  // namespace

std::string hrv_kernel_source() { return kKernelSource; }

HrvFixedValues hrv_fixed_reference(std::span<const std::int32_t> rr_ms) {
  ensure(rr_ms.size() >= 2, "hrv_fixed_reference: need at least two intervals");
  const std::int32_t m = static_cast<std::int32_t>(rr_ms.size()) - 1;
  std::int32_t sumsq = 0;
  std::int32_t sumd = 0;
  std::int32_t nn50 = 0;
  for (std::size_t i = 1; i < rr_ms.size(); ++i) {
    const std::int32_t d = rr_ms[i] - rr_ms[i - 1];
    sumd += d;
    sumsq += d * d;
    if (std::abs(d) > 50) ++nn50;
  }
  HrvFixedValues out;
  const std::int32_t mean_sq = sumsq / m;
  out.rmssd_q4_ms = isqrt(static_cast<std::uint32_t>(mean_sq) << 8);
  const std::int32_t mean_d = sumd / m;
  const std::int32_t variance = std::max(0, mean_sq - mean_d * mean_d);
  out.sdsd_q4_ms = isqrt(static_cast<std::uint32_t>(variance) << 8);
  out.nn50 = nn50;
  return out;
}

HrvKernelResult run_hrv_kernel(std::span<const std::int32_t> rr_ms) {
  ensure(rr_ms.size() >= 2, "run_hrv_kernel: need at least two intervals");
  ensure(rr_ms.size() <= 2000, "run_hrv_kernel: RR series too long for the layout");
  for (std::int32_t v : rr_ms) {
    ensure(v >= 0 && v <= 5000, "run_hrv_kernel: implausible RR interval (ms)");
  }
  // The source is constant: assemble it once per process.
  static const asmx::Program program = asmx::assemble(kKernelSource);
  ensure(program.end_address() <= kCountAddr, "run_hrv_kernel: program overflows layout");

  rv::Machine machine(rv::ri5cy(), 1 << 16);
  machine.load_program(program.words);
  machine.memory().store32(kCountAddr, static_cast<std::uint32_t>(rr_ms.size()));
  machine.memory().write_words(kRrAddr,
                               std::span<const std::int32_t>(rr_ms.data(), rr_ms.size()));
  rv::analysis::install_load_verifier();
  machine.set_verify_on_load(true);

  HrvKernelResult result;
  {
    // The difference loop runs exactly n-1 times; the isqrt loops bound
    // themselves (shift-countdown pattern).
    rv::analysis::AnalyzeOptions options;
    options.loop_bounds[program.symbol("diff_end")] =
        static_cast<std::uint64_t>(rr_ms.size()) - 1;
    const rv::analysis::AnalysisReport report = rv::analysis::analyze(
        machine.memory(), program.symbol("main"), machine.core().profile(), options);
    ensure(report.ok(), "run_hrv_kernel: static analysis rejected the kernel");
    result.static_min_cycles = report.min_cycles;
    result.static_max_cycles = report.max_cycles;
    result.static_stack_bytes = report.stack_bytes;
  }
  const rv::RunResult run = machine.run(program.symbol("main"));

  result.values.rmssd_q4_ms = static_cast<std::int32_t>(machine.memory().load32(kOutAddr));
  result.values.sdsd_q4_ms =
      static_cast<std::int32_t>(machine.memory().load32(kOutAddr + 4));
  result.values.nn50 = static_cast<std::int32_t>(machine.memory().load32(kOutAddr + 8));
  result.cycles = run.cycles;
  result.instructions = run.instructions;
  return result;
}

namespace {

constexpr std::uint32_t kGsrCountAddr = 0x0F00;
constexpr std::uint32_t kGsrMinAddr = 0x0F04;
constexpr std::uint32_t kGsrEpsAddr = 0x0F08;
constexpr std::uint32_t kGsrOutAddr = 0x0F10;
constexpr std::uint32_t kGsrDataAddr = 0x1000;

// Register use: s0 sample ptr, s1 loop counter, s5 boxcar sum, s6 prev
// smoothed value, s7 eps, s8 in-rise flag, s9 rise start, s10 min height,
// s11 run length; a0/a1/a2 = count / total height / total length.
const char* kGsrKernelSource = R"(
    .equ DATA, 0x1000
    .equ COUNT, 0xF00
    .equ MIN_H, 0xF04
    .equ EPS, 0xF08
    .equ OUT, 0xF10
main:
    li s0, DATA
    li t0, COUNT
    lw s1, 0(t0)
    lw s10, MIN_H-COUNT(t0)
    lw s7, EPS-COUNT(t0)
    # Prime the 4-sample boxcar with samples 0..3.
    p.lw t2, 4(s0!)
    mv s5, t2
    p.lw t2, 4(s0!)
    add s5, s5, t2
    p.lw t2, 4(s0!)
    add s5, s5, t2
    p.lw t2, 4(s0!)
    add s5, s5, t2
    srai s6, s5, 2          # prev = smooth[3]
    addi s1, s1, -4         # remaining samples
    li s8, 0
    li s9, 0
    li s11, 0
    li a0, 0
    li a1, 0
    li a2, 0
    beqz s1, finish
sample_loop:
    p.lw t2, 4(s0!)         # x[i]
    add s5, s5, t2
    lw t3, -20(s0)          # x[i-4] leaves the window
    sub s5, s5, t3
    srai t4, s5, 2          # cur = smooth[i]
    sub t5, t4, s6          # derivative
    blt s7, t5, rising      # d > eps ?
    beqz s8, advance        # not in a rise: nothing to close
    sub t6, s6, s9          # height of the finished rise
    blt t6, s10, rise_clear
    addi a0, a0, 1
    add a1, a1, t6
    add a2, a2, s11
rise_clear:
    li s8, 0
    j advance
rising:
    bnez s8, rise_cont
    li s8, 1
    mv s9, s6               # rise starts at the previous value
    li s11, 0
rise_cont:
    addi s11, s11, 1
advance:
    mv s6, t4
    addi s1, s1, -1
    bnez s1, sample_loop
finish:
    beqz s8, store          # close a rise still open at stream end
    sub t6, s6, s9
    blt t6, s10, store
    addi a0, a0, 1
    add a1, a1, t6
    add a2, a2, s11
store:
    li t0, OUT
    sw a0, 0(t0)
    sw a1, 4(t0)
    sw a2, 8(t0)
    ecall
)";

}  // namespace

std::string gsr_kernel_source() { return kGsrKernelSource; }

GsrFixedValues gsr_fixed_reference(std::span<const std::int32_t> samples_q8,
                                   std::int32_t min_height_q8,
                                   std::int32_t eps_q8) {
  ensure(samples_q8.size() >= 5, "gsr_fixed_reference: need at least 5 samples");
  GsrFixedValues out;
  std::int32_t sum = samples_q8[0] + samples_q8[1] + samples_q8[2] + samples_q8[3];
  std::int32_t prev = sum >> 2;
  bool in_rise = false;
  std::int32_t start = 0;
  std::int32_t run_len = 0;
  const auto close_rise = [&] {
    const std::int32_t height = prev - start;
    if (height >= min_height_q8) {
      ++out.slope_count;
      out.total_height_q8 += height;
      out.total_length_samples += run_len;
    }
    in_rise = false;
  };
  for (std::size_t i = 4; i < samples_q8.size(); ++i) {
    sum += samples_q8[i] - samples_q8[i - 4];
    const std::int32_t cur = sum >> 2;
    const std::int32_t d = cur - prev;
    if (d > eps_q8) {
      if (!in_rise) {
        in_rise = true;
        start = prev;
        run_len = 0;
      }
      ++run_len;
    } else if (in_rise) {
      close_rise();
    }
    prev = cur;
  }
  if (in_rise) close_rise();
  return out;
}

GsrKernelResult run_gsr_kernel(std::span<const std::int32_t> samples_q8,
                               std::int32_t min_height_q8, std::int32_t eps_q8) {
  ensure(samples_q8.size() >= 5, "run_gsr_kernel: need at least 5 samples");
  ensure(samples_q8.size() <= 12000, "run_gsr_kernel: series too long for the layout");
  for (std::int32_t v : samples_q8) {
    ensure(v >= 0 && v <= (50 << 8), "run_gsr_kernel: implausible conductance");
  }
  // The source is constant: assemble it once per process.
  static const asmx::Program program = asmx::assemble(kGsrKernelSource);
  ensure(program.end_address() <= kGsrCountAddr,
         "run_gsr_kernel: program overflows layout");

  rv::Machine machine(rv::ri5cy(), 1 << 16);
  machine.load_program(program.words);
  machine.memory().store32(kGsrCountAddr, static_cast<std::uint32_t>(samples_q8.size()));
  machine.memory().store32(kGsrMinAddr, static_cast<std::uint32_t>(min_height_q8));
  machine.memory().store32(kGsrEpsAddr, static_cast<std::uint32_t>(eps_q8));
  machine.memory().write_words(
      kGsrDataAddr, std::span<const std::int32_t>(samples_q8.data(), samples_q8.size()));
  rv::analysis::install_load_verifier();
  machine.set_verify_on_load(true);

  GsrKernelResult result;
  {
    // The sample loop runs exactly n-4 times (the first four samples prime
    // the boxcar before the loop is entered).
    rv::analysis::AnalyzeOptions options;
    options.loop_bounds[program.symbol("sample_loop")] =
        static_cast<std::uint64_t>(samples_q8.size()) - 4;
    const rv::analysis::AnalysisReport report = rv::analysis::analyze(
        machine.memory(), program.symbol("main"), machine.core().profile(), options);
    ensure(report.ok(), "run_gsr_kernel: static analysis rejected the kernel");
    result.static_min_cycles = report.min_cycles;
    result.static_max_cycles = report.max_cycles;
    result.static_stack_bytes = report.stack_bytes;
  }
  const rv::RunResult run = machine.run(program.symbol("main"));

  result.values.slope_count =
      static_cast<std::int32_t>(machine.memory().load32(kGsrOutAddr));
  result.values.total_height_q8 =
      static_cast<std::int32_t>(machine.memory().load32(kGsrOutAddr + 4));
  result.values.total_length_samples =
      static_cast<std::int32_t>(machine.memory().load32(kGsrOutAddr + 8));
  result.cycles = run.cycles;
  result.instructions = run.instructions;
  return result;
}

}  // namespace iw::kernels
