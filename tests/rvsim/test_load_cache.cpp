// The load-analysis cache behind the verify_on_load gate and trace
// certification (src/rvsim/analysis): a hit must return exactly what a fresh
// analysis returns, the key must cover every decoded word and nothing else,
// rejected images must never be kept and must throw the uncached
// diagnostics, the capacity bound must hold, one gated run must analyze a
// new image once and a known image not at all, and concurrent gated runs
// must give the serial results.
#include "rvsim/analysis/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "asmx/assembler.hpp"
#include "common/error.hpp"
#include "kernels/runner.hpp"
#include "rvsim/machine.hpp"

namespace iw::rv::analysis {
namespace {

constexpr std::size_t kMem = 1u << 16;
constexpr std::uint32_t kData = 0x1000;

/// A hot counted loop (so traces compile and the certification hook runs)
/// that stores its sum to kData.
asmx::Program loop_program(int iterations, int step) {
  return asmx::assemble("main:\n"
                        "    li t0, " + std::to_string(iterations) + "\n"
                        "    li a0, 0\n"
                        "loop:\n"
                        "    addi a0, a0, " + std::to_string(step) + "\n"
                        "    addi t0, t0, -1\n"
                        "    bnez t0, loop\n"
                        "    li t1, 0x1000\n"
                        "    sw a0, 0(t1)\n"
                        "    ecall\n");
}

void load(Memory& mem, const asmx::Program& p) {
  mem.write_words(p.base, std::span<const std::uint32_t>(p.words));
}

/// Merged [start, end) ranges of the report's blocks.
std::vector<std::pair<std::uint32_t, std::uint32_t>> merged_blocks(const AnalysisReport& r) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const BasicBlock& b : r.blocks) {
    if (!out.empty() && b.start <= out.back().second) {
      out.back().second = std::max(out.back().second, b.end);
    } else {
      out.emplace_back(b.start, b.end);
    }
  }
  return out;
}

void expect_same_certificate(const CodeCertificate& a, const CodeCertificate& b,
                             const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.ranges, b.ranges) << what;
  EXPECT_EQ(a.loop_ends, b.loop_ends) << what;
}

/// The error a call throws ("" when it returns).
template <typename F>
std::string error_of(F&& call) {
  try {
    call();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(LoadCache, ReferenceImagesHitWithTheUncachedCertificate) {
  clear_load_cache();
  const std::vector<kernels::KernelImage> images = kernels::reference_kernel_images();
  ASSERT_LE(images.size(), kLoadCacheCapacity);
  for (int pass = 0; pass < 2; ++pass) {
    for (const kernels::KernelImage& img : images) {
      Memory mem(img.mem_bytes);
      load(mem, img.program);
      const CodeCertificate fresh = certify(mem, img.entry, img.profile);
      ASSERT_TRUE(fresh.ok) << img.name;
      const std::shared_ptr<const LoadAnalysis> cached =
          load_analysis(mem, img.entry, img.profile);
      expect_same_certificate(cached->certificate, fresh, img.name);
      EXPECT_EQ(cached->code, merged_blocks(analyze(mem, img.entry, img.profile))) << img.name;
    }
  }
  const LoadCacheStats stats = load_cache_stats();
  EXPECT_EQ(stats.misses, images.size());
  EXPECT_EQ(stats.hits, images.size());
  EXPECT_EQ(stats.entries, images.size());
}

TEST(LoadCache, GatedRunAnalyzesANewImageOnceAndAKnownImageNever) {
  install_load_verifier();
  clear_load_cache();
  const asmx::Program p = loop_program(200, 3);
  const auto gated_run = [&] {
    Machine machine(ri5cy(), kMem);
    machine.set_trace_mode(true);
    machine.load_program(std::span<const std::uint32_t>(p.words));
    machine.set_verify_on_load(true);
    const RunResult r = machine.run(p.symbol("main"));
    // Traces ran, so the certification hook was consulted too.
    EXPECT_GT(machine.core().trace_instructions(), 0u);
    EXPECT_EQ(machine.memory().load32(kData), 600u);
    return r;
  };

  const RunResult miss = gated_run();
  LoadCacheStats stats = load_cache_stats();
  EXPECT_EQ(stats.analyses, 1u);  // the gate analyzed; certification hit
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  const RunResult hit = gated_run();
  stats = load_cache_stats();
  EXPECT_EQ(stats.analyses, 1u);  // nothing analyzed on a hit
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(hit.cycles, miss.cycles);
  EXPECT_EQ(hit.instructions, miss.instructions);
}

TEST(LoadCache, DataWritesHitAndADecodedWordChangeMisses) {
  clear_load_cache();
  const asmx::Program p = loop_program(10, 1);
  const std::uint32_t entry = p.symbol("main");
  Memory mem(kMem);
  load(mem, p);
  const std::shared_ptr<const LoadAnalysis> first = load_analysis(mem, entry, ri5cy());

  // Data, including the word right after the code, is not part of the key.
  mem.store32(kData, 0xdeadbeef);
  mem.store32(p.end_address(), 0xffffffff);
  EXPECT_EQ(load_analysis(mem, entry, ri5cy()), first);
  LoadCacheStats stats = load_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.analyses, 1u);

  // One decoded word changes (the loop step 1 -> 5): a miss and a fresh
  // analysis of the new image, kept next to the old one.
  const std::vector<std::uint32_t> old_words = p.words;
  const asmx::Program q = loop_program(10, 5);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < q.words.size(); ++i) changed += q.words[i] != old_words[i];
  ASSERT_EQ(changed, 1u);
  load(mem, q);
  const std::shared_ptr<const LoadAnalysis> second = load_analysis(mem, entry, ri5cy());
  EXPECT_NE(second, first);
  stats = load_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.analyses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  expect_same_certificate(second->certificate, certify(mem, entry, ri5cy()), "step 5");

  // Restoring the old word finds the old entry again.
  load(mem, p);
  EXPECT_EQ(load_analysis(mem, entry, ri5cy()), first);
}

TEST(LoadCache, KeyTakesTheWholeProfileTheEntryAndTheMemorySize) {
  clear_load_cache();
  const asmx::Program p = loop_program(10, 1);
  TimingProfile slower_mul = ri5cy();
  slower_mul.mul += 3;
  ASSERT_EQ(slower_mul.name, ri5cy().name);
  Memory mem(kMem);
  load(mem, p);
  Memory bigger(2 * kMem);
  load(bigger, p);
  (void)load_analysis(mem, 0, ri5cy());
  (void)load_analysis(mem, 0, slower_mul);
  (void)load_analysis(mem, 4, ri5cy());
  (void)load_analysis(bigger, 0, ri5cy());
  const LoadCacheStats stats = load_cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 4u);
}

TEST(LoadCache, RiscyAcceptDoesNotLetTheImageThroughOnIbex) {
  install_load_verifier();
  clear_load_cache();
  int checked = 0;
  for (const kernels::KernelImage& img : kernels::reference_kernel_images()) {
    if (!img.expect_reject_on_ibex || img.profile != ri5cy()) continue;
    ++checked;
    Memory mem(img.mem_bytes);
    load(mem, img.program);
    ASSERT_NO_THROW(load_analysis(mem, img.entry, img.profile)) << img.name;
    const std::string uncached = error_of([&] { verify_or_throw(mem, img.entry, ibex()); });
    ASSERT_EQ(uncached.rfind("verify_on_load[ibex]: ", 0), 0u) << uncached;

    Machine machine(ibex(), img.mem_bytes);
    machine.load_program(std::span<const std::uint32_t>(img.program.words), img.program.base);
    machine.set_verify_on_load(true);
    for (int run = 0; run < 2; ++run) {
      EXPECT_EQ(error_of([&] { machine.run(img.entry); }), uncached) << img.name;
    }
  }
  EXPECT_GE(checked, 1);
  EXPECT_EQ(load_cache_stats().entries, static_cast<std::size_t>(checked));
}

TEST(LoadCache, IllegalWordAfterAHitIsRejectedWithTheUncachedDiagnostics) {
  clear_load_cache();
  const asmx::Program p = loop_program(10, 1);
  const std::uint32_t entry = p.symbol("main");
  Memory mem(kMem);
  load(mem, p);
  (void)load_analysis(mem, entry, ri5cy());
  (void)load_analysis(mem, entry, ri5cy());
  ASSERT_EQ(load_cache_stats().hits, 1u);

  mem.store32(entry + 8, 0xffffffff);  // inside the loop body
  const std::string uncached = error_of([&] { verify_or_throw(mem, entry, ri5cy()); });
  ASSERT_NE(uncached.find("[illegal-word]"), std::string::npos) << uncached;
  const LoadCacheStats before = load_cache_stats();
  for (int call = 0; call < 2; ++call) {
    EXPECT_EQ(error_of([&] { (void)load_analysis(mem, entry, ri5cy()); }), uncached);
  }
  EXPECT_FALSE(certify(mem, entry, ri5cy()).ok);
  const LoadCacheStats after = load_cache_stats();
  EXPECT_EQ(after.entries, before.entries);  // rejections are never kept
  EXPECT_EQ(after.misses, before.misses + 2);
  EXPECT_EQ(after.analyses, before.analyses + 3);  // two rejections + certify
}

TEST(LoadCache, CapacityEvictsTheLeastRecentlyUsedImage) {
  clear_load_cache();
  const std::size_t images = kLoadCacheCapacity + 10;
  Memory mem(kMem);
  const auto load_image = [&](std::size_t i) {
    load(mem, loop_program(static_cast<int>(i) + 1, 1));
    (void)load_analysis(mem, 0, ri5cy());
  };
  for (std::size_t i = 0; i < images; ++i) load_image(i);
  LoadCacheStats stats = load_cache_stats();
  EXPECT_EQ(stats.entries, kLoadCacheCapacity);
  EXPECT_EQ(stats.misses, images);

  // The newest kLoadCacheCapacity images hit; the oldest was evicted.
  load_image(images - 1);
  load_image(images - kLoadCacheCapacity);
  EXPECT_EQ(load_cache_stats().hits, 2u);
  load_image(0);
  stats = load_cache_stats();
  EXPECT_EQ(stats.misses, images + 1);
  EXPECT_EQ(stats.entries, kLoadCacheCapacity);
}

TEST(LoadCache, ConcurrentGatedRunsMatchSerialRuns) {
  install_load_verifier();
  struct Job {
    TimingProfile profile;
    asmx::Program program;
  };
  std::vector<Job> jobs;
  for (int k = 1; k <= 3; ++k) {
    jobs.push_back({ri5cy(), loop_program(100 * k, k)});
    jobs.push_back({ibex(), loop_program(100 * k, k)});
  }
  // A rejected image in the mix: hardware loops on IBEX.
  jobs.push_back({ibex(), asmx::assemble("main:\n"
                                         "    lp.setupi 0, 4, end\n"
                                         "    addi a0, a0, 1\n"
                                         "end:\n"
                                         "    ecall\n")});

  struct Outcome {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint32_t stored = 0;
    std::string error;
    bool operator==(const Outcome&) const = default;
  };
  const auto run_job = [](const Job& job) {
    Outcome out;
    Machine machine(job.profile, kMem);
    machine.load_program(std::span<const std::uint32_t>(job.program.words));
    machine.set_verify_on_load(true);
    out.error = error_of([&] {
      const RunResult r = machine.run(job.program.symbol("main"));
      out.cycles = r.cycles;
      out.instructions = r.instructions;
    });
    out.stored = machine.memory().load32(kData);
    return out;
  };

  std::vector<Outcome> serial;
  for (const Job& job : jobs) serial.push_back(run_job(job));
  ASSERT_NE(serial.back().error, "");

  // Cold cache, so the threads race on the misses as well as the hits.
  clear_load_cache();
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<Outcome>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          got[t].push_back(run_job(jobs[(i + static_cast<std::size_t>(t)) % jobs.size()]));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < got[t].size(); ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(t)) % jobs.size();
      EXPECT_TRUE(got[t][k] == serial[i]) << "thread " << t << " job " << i;
    }
  }
  EXPECT_EQ(load_cache_stats().entries, jobs.size() - 1);
}

}  // namespace
}  // namespace iw::rv::analysis
