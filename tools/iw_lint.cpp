// iw_lint: static analysis front end for rvsim program images.
//
// Three modes:
//
//   iw_lint --kernels [--json]
//       Self-check over every kernel shipped in src/kernels: each image is
//       analyzed under all three timing profiles. The run fails (exit 1) if
//       a kernel has any error under its intended profile, if a kernel that
//       needs Xpulp/FPU features is NOT rejected under the IBEX profile, or
//       if any profile reports a structural (non-ISA) error anywhere.
//
//   iw_lint --wcet [--json]
//       Static energy certification (DESIGN.md §16): every shipped kernel is
//       analyzed interprocedurally AND executed once under its intended
//       profile, and the tool reports the sandwich
//           floor (static min) <= dynamic cycles <= ceiling (static WCET)
//       plus the composed maximum stack depth. Exit 1 unless every row is
//       sound (finite ceiling, sandwich holds).
//
//   iw_lint --traces [--json]
//       Superblock-trace report over the same kernels (DESIGN.md §14): per
//       kernel, the certified basic-block and hardware-loop counts, the
//       static cycle floor, and — from running the bare image on a budgeted
//       Machine — how many traces compiled and what fraction of the dynamic
//       instruction stream they covered. Bare images carry no weights or
//       sensor data, so kernels that chase zeroed config pointers fault out
//       of bounds and cluster kernels can spin at the open barrier until the
//       budget trips; such rows are marked `partial` and still report the
//       coverage seen up to the stop.
//
//   iw_lint [--asm] [--profile NAME] [--entry SYM|ADDR] [--mem BYTES]
//           [--strict-indirect] [--json] FILE
//       Assembles FILE (with --asm, or when it ends in .s/.S/.asm) or loads
//       it as a raw little-endian word image at address 0, then analyzes it
//       under the chosen profile (default ri5cy). Prints the human report
//       (or JSON with --json); exit 1 when error diagnostics were produced.
//       --mem and an --entry address are whole numbers (decimal, 0x hex or
//       0 octal, like C literals); anything else exits 2 with a message.
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asmx/assembler.hpp"
#include "cli_flags.hpp"
#include "common/error.hpp"
#include "kernels/runner.hpp"
#include "kernels/wcet.hpp"
#include "rvsim/analysis/analysis.hpp"
#include "rvsim/machine.hpp"
#include "rvsim/memory.hpp"
#include "rvsim/timing.hpp"
#include "rvsim/trace.hpp"

namespace {

using iw::rv::analysis::AnalysisReport;
using iw::rv::analysis::DiagKind;
using iw::rv::analysis::Severity;

int usage() {
  std::fprintf(stderr,
               "usage: iw_lint --kernels [--json]\n"
               "       iw_lint --wcet [--json]\n"
               "       iw_lint --traces [--json]\n"
               "       iw_lint [--asm] [--profile cortex-m4f|ibex|ri5cy] "
               "[--entry SYM|ADDR]\n"
               "               [--mem BYTES] [--strict-indirect] [--json] FILE\n");
  return 2;
}

iw::rv::TimingProfile profile_by_name(const std::string& name) {
  if (name == "cortex-m4f" || name == "cortex_m4f" || name == "m4f") {
    return iw::rv::cortex_m4f();
  }
  if (name == "ibex") return iw::rv::ibex();
  if (name == "ri5cy") return iw::rv::ri5cy();
  iw::fail("unknown profile '" + name + "'");
}

AnalysisReport analyze_image(const iw::asmx::Program& program, std::uint32_t entry,
                             const iw::rv::TimingProfile& profile,
                             std::size_t mem_bytes, bool strict_indirect) {
  iw::rv::Memory mem(mem_bytes);
  mem.write_words(program.base, std::span<const std::uint32_t>(program.words));
  iw::rv::analysis::AnalyzeOptions options;
  options.indirect_jump_is_error = strict_indirect;
  return iw::rv::analysis::analyze(mem, entry, profile, options);
}

/// True when every error diagnostic is an ISA-support mismatch — the only
/// acceptable reason for a shipped kernel to fail under a foreign profile.
bool only_isa_errors(const AnalysisReport& report) {
  for (const auto& d : report.diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (d.kind != DiagKind::kUnsupportedInstruction) return false;
  }
  return true;
}

int lint_kernels(bool json) {
  const std::vector<iw::kernels::KernelImage> images =
      iw::kernels::reference_kernel_images();
  const iw::rv::TimingProfile profiles[] = {iw::rv::cortex_m4f(), iw::rv::ibex(),
                                            iw::rv::ri5cy()};
  bool failed = false;
  std::ostringstream js;
  js << "[";
  if (!json) {
    std::printf("%-20s %-12s %14s %14s %14s\n", "kernel", "intended",
                profiles[0].name.c_str(), profiles[1].name.c_str(),
                profiles[2].name.c_str());
  }
  bool first = true;
  for (const iw::kernels::KernelImage& image : images) {
    std::string cells[3];
    for (int p = 0; p < 3; ++p) {
      const AnalysisReport report = analyze_image(
          image.program, image.entry, profiles[p], image.mem_bytes, false);
      const bool intended = profiles[p].name == image.profile.name;
      if (intended && !report.ok()) {
        failed = true;
        std::fprintf(stderr, "FAIL: %s has errors under its intended profile:\n%s",
                     image.name.c_str(), report.to_text().c_str());
      }
      if (!only_isa_errors(report)) {
        failed = true;
        std::fprintf(stderr,
                     "FAIL: %s has structural (non-ISA) errors under %s:\n%s",
                     image.name.c_str(), profiles[p].name.c_str(),
                     report.to_text().c_str());
      }
      if (image.expect_reject_on_ibex && profiles[p].name == "ibex" &&
          report.ok()) {
        failed = true;
        std::fprintf(stderr,
                     "FAIL: %s was expected to be rejected under ibex but passed\n",
                     image.name.c_str());
      }
      cells[p] = report.ok() ? ("ok min=" + std::to_string(report.min_cycles))
                             : (std::to_string(report.error_count()) + " err");
      if (json) {
        if (!first) js << ",";
        first = false;
        js << "{\"kernel\":\"" << image.name << "\",\"profile\":\""
           << profiles[p].name << "\",\"intended\":" << (intended ? "true" : "false")
           << ",\"report\":" << report.to_json() << "}";
      }
    }
    if (!json) {
      std::printf("%-20s %-12s %14s %14s %14s\n", image.name.c_str(),
                  image.profile.name.c_str(), cells[0].c_str(), cells[1].c_str(),
                  cells[2].c_str());
    }
  }
  js << "]";
  if (json) std::printf("%s\n", js.str().c_str());
  if (!json) {
    std::printf("%s\n", failed ? "FAIL" : "ok: all kernels lint clean under their "
                                          "intended profiles");
  }
  return failed ? 1 : 0;
}

int lint_wcet(bool json) {
  const std::vector<iw::kernels::WcetRow> rows =
      iw::kernels::certified_kernel_rows();
  if (json) {
    std::printf("%s\n", iw::kernels::wcet_table_json(rows).c_str());
  } else {
    std::printf("%s", iw::kernels::wcet_table_text(rows).c_str());
  }
  const bool sound = iw::kernels::all_sound(rows);
  if (!sound) {
    for (const iw::kernels::WcetRow& row : rows) {
      if (row.sound) continue;
      const std::string ceiling =
          row.ceiling_cycles == iw::rv::analysis::kUnboundedCycles
              ? "unbounded"
              : std::to_string(row.ceiling_cycles);
      std::fprintf(stderr,
                   "FAIL: %s (%s) is not certified: floor=%llu dynamic=%llu "
                   "ceiling=%s\n",
                   row.name.c_str(), row.profile_name.c_str(),
                   static_cast<unsigned long long>(row.floor_cycles),
                   static_cast<unsigned long long>(row.dynamic_cycles),
                   ceiling.c_str());
    }
  } else if (!json) {
    std::printf("ok: every kernel's dynamic cycle count sits inside its "
                "static [floor, ceiling] certificate\n");
  }
  return sound ? 0 : 1;
}

int lint_traces(bool json) {
  iw::rv::analysis::install_load_verifier();
  const std::vector<iw::kernels::KernelImage> images =
      iw::kernels::reference_kernel_images();
  // Enough budget for every well-formed kernel to halt on a bare image.
  constexpr std::uint64_t kBudget = 20'000'000;

  if (!json) {
    std::printf("%-20s %-12s %7s %8s %11s %7s %12s %7s %8s\n", "kernel",
                "profile", "blocks", "hwloops", "min_cycles", "traces",
                "instrs", "cov%", "run");
  }
  std::ostringstream js;
  js << "[";
  bool first = true;
  for (const iw::kernels::KernelImage& image : images) {
    const AnalysisReport report = analyze_image(
        image.program, image.entry, image.profile, image.mem_bytes, false);

    iw::rv::Machine machine(image.profile, image.mem_bytes);
    machine.set_trace_mode(true);
    machine.load_program(std::span<const std::uint32_t>(image.program.words),
                         image.program.base);
    bool completed = true;
    try {
      machine.run(image.entry, kBudget);
    } catch (const iw::Error&) {
      // Budget trip or a bare-image fault (zeroed config pointers): the
      // counters still describe everything executed up to the stop.
      completed = false;
    }
    const std::uint64_t instructions = machine.core().instructions();
    const std::uint64_t traced = machine.core().trace_instructions();
    const double coverage =
        instructions == 0
            ? 0.0
            : 100.0 * static_cast<double>(traced) / static_cast<double>(instructions);
    const std::uint64_t compiled =
        machine.trace_space() != nullptr ? machine.trace_space()->stats().compiled : 0;

    if (json) {
      if (!first) js << ",";
      first = false;
      js << "{\"kernel\":\"" << image.name << "\",\"profile\":\""
         << image.profile.name << "\",\"blocks\":" << report.blocks.size()
         << ",\"hwloops\":" << report.loops.size()
         << ",\"min_cycles\":" << report.min_cycles
         << ",\"traces_compiled\":" << compiled
         << ",\"instructions\":" << instructions
         << ",\"trace_instructions\":" << traced << ",\"coverage_pct\":"
         << coverage << ",\"completed\":" << (completed ? "true" : "false")
         << "}";
    } else {
      std::printf("%-20s %-12s %7zu %8zu %11llu %7llu %12llu %6.1f%% %8s\n",
                  image.name.c_str(), image.profile.name.c_str(),
                  report.blocks.size(), report.loops.size(),
                  static_cast<unsigned long long>(report.min_cycles),
                  static_cast<unsigned long long>(compiled),
                  static_cast<unsigned long long>(instructions), coverage,
                  completed ? "halted" : "partial");
    }
  }
  js << "]";
  if (json) std::printf("%s\n", js.str().c_str());
  return 0;
}

bool looks_like_asm(const std::string& path) {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = path.substr(dot);
  return ext == ".s" || ext == ".S" || ext == ".asm";
}

int lint_file(const std::string& path, bool force_asm, const std::string& profile_name,
              const std::string& entry_spec, std::size_t mem_bytes,
              bool strict_indirect, bool json) {
  const iw::rv::TimingProfile profile = profile_by_name(profile_name);

  iw::asmx::Program program;
  if (force_asm || looks_like_asm(path)) {
    std::ifstream in(path);
    if (!in) iw::fail("cannot open " + path);
    std::ostringstream source;
    source << in.rdbuf();
    program = iw::asmx::assemble(source.str());
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) iw::fail("cannot open " + path);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    iw::ensure(bytes.size() % 4 == 0,
               "raw image size must be a multiple of 4 bytes");
    program.words.resize(bytes.size() / 4);
    std::memcpy(program.words.data(), bytes.data(), bytes.size());
  }

  std::uint32_t entry = 0;
  if (!entry_spec.empty()) {
    if (program.symbols.count(entry_spec) != 0) {
      entry = program.symbol(entry_spec);
    } else if (!iw::cli::parse_number(entry_spec.c_str(), 0, UINT32_MAX, entry, 0)) {
      iw::fail("--entry needs a symbol of " + path + " or an address in [0, " +
               std::to_string(UINT32_MAX) + "], got '" + entry_spec + "'");
    }
  } else if (program.symbols.count("main") != 0) {
    entry = program.symbol("main");
  }

  if (mem_bytes == 0) {
    mem_bytes = iw::kernels::Layout::kMemBytes;
  }
  iw::ensure(program.end_address() <= mem_bytes,
             "image does not fit the memory size (use --mem)");

  const AnalysisReport report =
      analyze_image(program, entry, profile, mem_bytes, strict_indirect);
  std::printf("%s%s", json ? report.to_json().c_str() : report.to_text().c_str(),
              json ? "\n" : "");
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool kernels = false;
  bool wcet = false;
  bool traces = false;
  bool json = false;
  bool force_asm = false;
  bool strict_indirect = false;
  std::string profile_name = "ri5cy";
  std::string entry_spec;
  std::size_t mem_bytes = 0;
  std::string file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernels") kernels = true;
    else if (arg == "--wcet") wcet = true;
    else if (arg == "--traces") traces = true;
    else if (arg == "--json") json = true;
    else if (arg == "--asm") force_asm = true;
    else if (arg == "--strict-indirect") strict_indirect = true;
    else if (arg == "--profile" && i + 1 < argc) profile_name = argv[++i];
    else if (arg == "--entry" && i + 1 < argc) entry_spec = argv[++i];
    else if (arg == "--mem" && i + 1 < argc) {
      // rvsim addresses are 32-bit, so no image needs more than 4 GiB.
      if (!iw::cli::flag_value(argv, i, 1, std::size_t{1} << 32, mem_bytes, 0)) {
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (file.empty()) {
      file = arg;
    } else {
      return usage();
    }
  }

  try {
    if (kernels) return lint_kernels(json);
    if (wcet) return lint_wcet(json);
    if (traces) return lint_traces(json);
    if (file.empty()) return usage();
    return lint_file(file, force_asm, profile_name, entry_spec, mem_bytes,
                     strict_indirect, json);
  } catch (const iw::Error& e) {
    std::fprintf(stderr, "iw_lint: %s\n", e.what());
    return 2;
  }
}
