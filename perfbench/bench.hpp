// Shared pieces of the benchmark driver: run options, the result record the
// workloads fill, span accumulation for the traced runs, and the timed-phase
// loop.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoint files (inside the checkout).
  std::string workdir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed correctness check.
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  /// Deterministic counters: identical on every run with the same seed.
  std::map<std::string, std::uint64_t> counters;

  /// Records a failed correctness check that invalidates `ops` operations.
  void fail(const std::string& what, std::uint64_t ops = 1) {
    failures.push_back(what);
    failed += ops;
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a deterministic counter of one pass; a value that differs from
  /// an earlier pass's fails the gate.
  void count(const std::string& name, std::uint64_t value) {
    const auto [it, inserted] = counters.emplace(name, value);
    if (!inserted && it->second != value) {
      fail("counter " + name + " changed between passes: " + std::to_string(it->second) +
           " vs " + std::to_string(value));
    }
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Named span totals (seconds) of one thread. Each worker owns one and the
/// owner merges them after the join, so recording takes no lock.
struct Spans {
  std::map<std::string, double> seconds;

  void add(const std::string& name, double s) { seconds[name] += s; }
  double get(const std::string& name) const {
    const auto it = seconds.find(name);
    return it == seconds.end() ? 0.0 : it->second;
  }
  void merge(const Spans& other) {
    for (const auto& [name, s] : other.seconds) seconds[name] += s;
  }
};

/// Times one span into `spans` from construction to destruction.
class Span {
 public:
  Span(Spans& spans, const char* name) : spans_(spans), name_(name), t0_(Clock::now()) {}
  ~Span() { spans_.add(name_, seconds_since(t0_)); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  const char* name_;
  Clock::time_point t0_;
};

/// Runs `pass` repeatedly for about `budget_s` seconds and records each
/// pass's wall time. `check`, when set, runs after each pass outside its
/// timing (output verification). A pass starts only while the previous pass
/// time still fits in the budget, so the phase ends near the budget instead
/// of one pass past it; at least `min_passes` run.
inline std::vector<double> timed_passes(double budget_s, int min_passes,
                                        const std::function<void(int)>& pass,
                                        const std::function<void()>& check = {}) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (true) {
    const auto t0 = Clock::now();
    pass(static_cast<int>(times.size()));
    times.push_back(seconds_since(t0));
    if (check) check();
    if (static_cast<int>(times.size()) < min_passes) continue;
    if (seconds_since(start) + times.back() > budget_s) break;
  }
  return times;
}

inline double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

/// Runs `setup` `reps` times and appends each wall time to `times`.
inline void time_setup(int reps, const std::function<void()>& setup, std::vector<double>& times) {
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
}

/// Tracing overhead: fastest traced pass over fastest untraced pass, minus
/// one (fastest passes for the reason given at report_end_to_end).
inline double overhead(const std::vector<double>& untraced, const std::vector<double>& traced) {
  return *std::min_element(traced.begin(), traced.end()) /
             *std::min_element(untraced.begin(), untraced.end()) -
         1.0;
}

/// The end-to-end metrics every workload reports. The host is shared:
/// other tenants slow this process by up to ~40%, for stretches of seconds
/// to minutes, and interference only ever adds time. So wall_s is the
/// fastest timed pass and setup_s the fastest of the setup repetitions
/// (half of them run before the timed phase and half after it, so they
/// sample two moments of the host). The fastest run is the steady estimate
/// of the program's own cost; the median and lower-quartile pass and the
/// median setup are kept as informational metrics.
inline void report_end_to_end(Result& r, std::vector<double> setup_s, std::vector<double> pass_s,
                              double ops_per_pass) {
  std::sort(pass_s.begin(), pass_s.end());
  r.metric("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  r.metric("setup_s_p50", median(setup_s), "s");
  r.metric("wall_s", pass_s.front(), "s");
  r.metric("wall_s_p25", pass_s[pass_s.size() / 4], "s");
  r.metric("wall_s_p50", median(pass_s), "s");
  r.metric("passes", static_cast<double>(pass_s.size()), "count");
  r.metric("ops_per_s", ops_per_pass / pass_s.front(), "1/s");
}

/// FNV-1a over a byte string: the digest the correctness gate compares.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Per-layer metric name -> unit.
using LayerMetrics = std::map<std::string, std::string>;

Result run_fleet_daily_resume(const Options& options);
Result run_iss_kernels(const Options& options);

/// The per-layer metrics each workload reports in a traced run. A traced run
/// must report every metric of its own list; the driver reports the other
/// workloads' metrics as explicit zeros (layers this workload never enters).
LayerMetrics fleet_layer_metrics();
LayerMetrics iss_layer_metrics();

}  // namespace perfbench
