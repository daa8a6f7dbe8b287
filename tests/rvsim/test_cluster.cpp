#include "rvsim/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "asmx/assembler.hpp"
#include "common/error.hpp"
#include "rvsim/analysis/analysis.hpp"

namespace iw::rv {
namespace {

ClusterConfig small_config(int cores = 8) {
  ClusterConfig cfg;
  cfg.num_cores = cores;
  cfg.mem_bytes = 1u << 20;
  return cfg;
}

TEST(Cluster, EachCoreSeesItsHartId) {
  Cluster cluster(ri5cy(), small_config());
  // Every core writes its hart id into slot[id] of an array in TCDM.
  const asmx::Program program = asmx::assemble(R"(
      .equ OUT, 0x80000
      csrr t0, mhartid
      slli t1, t0, 2
      li t2, OUT
      add t1, t1, t2
      sw t0, 0(t1)
      ecall
  )");
  cluster.load_program(program.words);
  const ClusterRunResult result = cluster.run(0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cluster.memory().load32(0x80000 + 4 * static_cast<std::uint32_t>(i)),
              static_cast<std::uint32_t>(i));
  }
  EXPECT_GT(result.cycles, 0u);
  EXPECT_EQ(result.per_core_cycles.size(), 8u);
}

TEST(Cluster, BarrierSynchronizesPhases) {
  Cluster cluster(ri5cy(), small_config());
  // Phase 1: core i writes (i+1)^2 to slot i. Barrier. Phase 2: core i reads
  // the slot of core (i+1) mod 8 and stores it into a second array. Without a
  // working barrier some reads would see zeros.
  const asmx::Program program = asmx::assemble(R"(
      .equ IN, 0x80000
      .equ OUT, 0x80100
      .equ BARRIER, 0xFFFC
      csrr t0, mhartid
      addi t1, t0, 1
      mul t2, t1, t1        # (id+1)^2
      slli t3, t0, 2
      li t4, IN
      add t3, t3, t4
      sw t2, 0(t3)
      li t5, BARRIER
      sw zero, 0(t5)        # barrier
      addi t1, t0, 1
      andi t1, t1, 7        # neighbour id
      slli t1, t1, 2
      li t4, IN
      add t1, t1, t4
      lw t2, 0(t1)
      slli t3, t0, 2
      li t4, OUT
      add t3, t3, t4
      sw t2, 0(t3)
      ecall
  )");
  cluster.load_program(program.words);
  cluster.run(0);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const std::uint32_t neighbour = (i + 1) % 8;
    EXPECT_EQ(cluster.memory().load32(0x80100 + 4 * i),
              (neighbour + 1) * (neighbour + 1))
        << "core " << i;
  }
}

TEST(Cluster, BarrierWaitCyclesAccounted) {
  Cluster cluster(ri5cy(), small_config());
  // Core 0 does extra work before the barrier; everyone else waits for it.
  const asmx::Program program = asmx::assemble(R"(
      .equ BARRIER, 0xFFFC
      csrr t0, mhartid
      bnez t0, barrier
      li t1, 200
  spin:
      addi t1, t1, -1
      bnez t1, spin
  barrier:
      li t5, BARRIER
      sw zero, 0(t5)
      ecall
  )");
  cluster.load_program(program.words);
  const ClusterRunResult result = cluster.run(0);
  EXPECT_GT(result.barrier_wait_cycles, 7u * 300u);
}

TEST(Cluster, SameBankContentionCostsMoreThanSpread) {
  const std::string same_addr = R"(
      .equ TCDM, 0x80000
      li t0, TCDM
      lp.setupi 0, 64, end
      lw t1, 0(t0)
  end:
      ecall
  )";
  // Each core reads its own word; 16 banks spread 8 cores conflict-free.
  const std::string spread = R"(
      .equ TCDM, 0x80000
      csrr t0, mhartid
      slli t0, t0, 2
      li t1, TCDM
      add t0, t0, t1
      lp.setupi 0, 64, end
      lw t1, 0(t0)
  end:
      ecall
  )";
  Cluster same(ri5cy(), small_config());
  same.load_program(asmx::assemble(same_addr).words);
  const ClusterRunResult rs = same.run(0);
  Cluster nice(ri5cy(), small_config());
  nice.load_program(asmx::assemble(spread).words);
  const ClusterRunResult rn = nice.run(0);
  EXPECT_GT(rs.bank_conflict_stalls, 0u);
  EXPECT_LT(rn.bank_conflict_stalls, rs.bank_conflict_stalls);
  EXPECT_GT(rs.cycles, rn.cycles);
}

TEST(Cluster, DeadlockDetectedWhenCoreHaltsBeforeBarrier) {
  Cluster cluster(ri5cy(), small_config());
  const asmx::Program program = asmx::assemble(R"(
      .equ BARRIER, 0xFFFC
      csrr t0, mhartid
      beqz t0, quit        # core 0 never reaches the barrier
      li t5, BARRIER
      sw zero, 0(t5)
  quit:
      ecall
  )");
  cluster.load_program(program.words);
  EXPECT_THROW(cluster.run(0), Error);
}

TEST(Cluster, SingleCoreClusterMatchesMachineSemantics) {
  Cluster cluster(ri5cy(), small_config(1));
  const asmx::Program program = asmx::assemble(R"(
      li a0, 0
      li t0, 1
      li t1, 101
  loop:
      add a0, a0, t0
      addi t0, t0, 1
      bne t0, t1, loop
      ecall
  )");
  cluster.load_program(program.words);
  cluster.run(0);
  EXPECT_EQ(cluster.core(0).reg(10), 5050u);
}

TEST(Cluster, ParallelWorkFinishesFasterThanSerial) {
  // Sum 4096 array elements: 8 cores with static partitioning vs 1 core.
  const std::string parallel = R"(
      .equ DATA, 0x80000
      .equ OUT, 0x84000
      csrr t0, mhartid
      li t1, 512           # elements per core
      mul t2, t0, t1
      slli t2, t2, 2
      li t3, DATA
      add t2, t2, t3       # this core's chunk
      li a0, 0
      lp.setup 0, t1, end
      p.lw t4, 4(t2!)
      add a0, a0, t4
  end:
      slli t5, t0, 2
      li t6, OUT
      add t5, t5, t6
      sw a0, 0(t5)
      ecall
  )";
  const std::string serial = R"(
      .equ DATA, 0x80000
      .equ OUT, 0x84000
      li t1, 4096
      li t2, DATA
      li a0, 0
      lp.setup 0, t1, end
      p.lw t4, 4(t2!)
      add a0, a0, t4
  end:
      li t6, OUT
      sw a0, 0(t6)
      ecall
  )";
  Cluster par(ri5cy(), small_config(8));
  par.load_program(asmx::assemble(parallel).words);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    par.memory().store32(0x80000 + 4 * i, i + 1);
  }
  const ClusterRunResult rp = par.run(0);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < 8; ++i) total += par.memory().load32(0x84000 + 4 * i);
  EXPECT_EQ(total, 4096ull * 4097ull / 2ull);

  Cluster ser(ri5cy(), small_config(1));
  ser.load_program(asmx::assemble(serial).words);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    ser.memory().store32(0x80000 + 4 * i, i + 1);
  }
  const ClusterRunResult rs = ser.run(0);
  EXPECT_EQ(ser.memory().load32(0x84000), 4096u * 4097u / 2u);
  // Expect a healthy (though sub-linear) speedup.
  EXPECT_GT(rs.cycles, 4u * rp.cycles);
}

/// Every core counts outer iterations into its own slot forever; core i
/// runs i + 1 private ALU iterations between stores, so the cores drift apart
/// and traced cores run ahead of the burst window.
const char* kRunawaySource = R"(
    .equ OUT, 0x80000
    csrr t0, mhartid
    slli t1, t0, 2
    li t2, OUT
    add t1, t1, t2
    li a0, 0
outer:
    addi t3, t0, 1
inner:
    addi a1, a1, 3
    xor a2, a2, a1
    addi t3, t3, -1
    bnez t3, inner
    addi a0, a0, 1
    sw a0, 0(t1)
    j outer
)";

struct BudgetStop {
  std::string error;
  std::vector<std::uint64_t> retired;  // per core
  std::vector<std::uint32_t> slots;    // per core, the last stored count
  std::uint64_t trace_instructions = 0;
};

BudgetStop run_to_budget(bool traces, std::uint64_t budget) {
  analysis::install_load_verifier();
  Cluster cluster(ri5cy(), small_config());
  cluster.set_trace_mode(traces);
  cluster.load_program(asmx::assemble(kRunawaySource).words);
  BudgetStop stop;
  try {
    cluster.run(0, budget);
  } catch (const Error& e) {
    stop.error = e.what();
  }
  for (int i = 0; i < 8; ++i) {
    stop.retired.push_back(cluster.core(i).instructions());
    stop.trace_instructions += cluster.core(i).trace_instructions();
    stop.slots.push_back(cluster.memory().load32(0x80000 + 4 * static_cast<std::uint32_t>(i)));
  }
  return stop;
}

// DESIGN.md §14: with traces on, a core may run up to 64 private records
// (ClusterTraceEnv::kAheadCap) past its burst window, spending the shared
// instruction budget out of canonical order. A completed run is unaffected;
// on the budget-exhaustion error path the error text and the total spent are
// the same, while which core spent how much may differ by that run-ahead,
// and with it how far each core's registers and stores got (each core's
// stores still match its own retired count).
TEST(Cluster, BudgetExhaustionErrorIsTheSameWithTracesOnAndOff) {
  constexpr std::uint64_t kBudget = 100'003;
  constexpr std::uint64_t kAheadCap = 64;
  const BudgetStop interp = run_to_budget(false, kBudget);
  const BudgetStop traced = run_to_budget(true, kBudget);
  EXPECT_EQ(interp.error, "Cluster::run: instruction budget exhausted (runaway program?)");
  EXPECT_EQ(traced.error, interp.error);
  EXPECT_EQ(interp.trace_instructions, 0u);
  EXPECT_GT(traced.trace_instructions, kBudget / 2);

  std::uint64_t interp_total = 0;
  std::uint64_t traced_total = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    interp_total += interp.retired[i];
    traced_total += traced.retired[i];
    // Each core's excess is its current run-ahead (<= kAheadCap); a core's
    // deficit is at most the other seven cores' excess.
    const std::uint64_t lo = std::min(interp.retired[i], traced.retired[i]);
    const std::uint64_t hi = std::max(interp.retired[i], traced.retired[i]);
    EXPECT_LE(hi - lo, 7 * kAheadCap) << "core " << i;
  }
  EXPECT_EQ(interp_total, kBudget);
  EXPECT_EQ(traced_total, kBudget);
  // Each core's stores follow its own retired count in both modes: the
  // prologue, then 4i + 8 instructions per outer iteration (i + 1 passes of
  // the 4-word inner loop plus 4 more), the store being the (4i + 7)th.
  const std::uint64_t prologue = asmx::assemble(kRunawaySource).symbol("outer") / 4;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto stores = [i, prologue](std::uint64_t retired) {
      const std::uint64_t per_outer = 4 * i + 8;
      const std::uint64_t body = retired - prologue;
      return static_cast<std::uint32_t>(body / per_outer +
                                        (body % per_outer >= 4 * i + 7 ? 1 : 0));
    };
    EXPECT_EQ(interp.slots[i], stores(interp.retired[i])) << "core " << i;
    EXPECT_EQ(traced.slots[i], stores(traced.retired[i])) << "core " << i;
  }
  // The split differs today. If this starts to fail, the budget is spent in
  // canonical order: compare the whole state here and drop the caveat.
  EXPECT_NE(traced.retired, interp.retired);
}

TEST(Cluster, ConfigValidation) {
  ClusterConfig bad = small_config();
  bad.num_cores = 0;
  EXPECT_THROW(Cluster(ri5cy(), bad), Error);
  bad = small_config();
  bad.barrier_addr = 0x2;  // misaligned
  EXPECT_THROW(Cluster(ri5cy(), bad), Error);
}

}  // namespace
}  // namespace iw::rv
