// Pre-run program-verification hook.
//
// Machine and Cluster offer an opt-in `verify_on_load` gate that statically
// checks the loaded program image before the first instruction executes. The
// checker itself lives in the iw_rvsim_analysis library (which depends on
// iw_rvsim), so the gate is wired through this process-global hook: the
// analysis library installs its verifier once
// (analysis::install_load_verifier()), and a Machine/Cluster with the gate
// enabled calls it at run() time. Running with the gate enabled but no
// verifier installed is a hard error, never a silent skip. The installed
// verifier consults the analysis library's load-analysis cache
// (analysis::load_analysis): an image accepted before is not analyzed
// again, and a rejected image is analyzed and rejected on every run.
#pragma once

#include <cstdint>

#include "rvsim/memory.hpp"
#include "rvsim/timing.hpp"

namespace iw::rv {

/// Verifies the program in `mem` reachable from `entry` under `profile`;
/// throws iw::Error on any diagnostic.
using ProgramVerifier = void (*)(Memory& mem, std::uint32_t entry,
                                 const TimingProfile& profile);

/// Installs the process-global verifier (thread-safe, last writer wins;
/// nullptr uninstalls).
void set_program_verifier(ProgramVerifier verifier);

/// The installed verifier, or nullptr.
ProgramVerifier program_verifier();

/// Runs the installed verifier; throws if none is installed.
void run_program_verifier(Memory& mem, std::uint32_t entry,
                          const TimingProfile& profile);

}  // namespace iw::rv
