// perfbench_driver — runs one benchmark workload and prints one JSON object
// (the last line of stdout): correctness, operation counts, every metric it
// measured with its unit, the deterministic counters, and the host
// fingerprint. perfbench/run.py builds it, runs it and turns that object into
// the benchmark's result line.
//
//   perfbench_driver --workload fleet_daily_resume --seed 1 --seconds 45 --trace 0
//                    --workdir .bench_build/work
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/hostinfo.hpp"
#include "common/simd.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const perfbench::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out += (i ? ", " : "") + json_string(r.failures[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "}, \"counters\": {";
  first = true;
  for (const auto& [name, v] : r.counters) {
    out += (first ? "" : ", ") + json_string(name) + ": " + std::to_string(v);
    first = false;
  }
  out += "}, \"host\": {\"cpu\": " + json_string(iw::hostinfo::cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_tier\": " + json_string(iw::simd::tier_name(iw::simd::active_tier())) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) + "}}";
  std::printf("%s\n", out.c_str());
}

struct Workload {
  const char* name;
  perfbench::Result (*run)(const perfbench::Options&);
  perfbench::LayerMetrics (*layers)();
};

const Workload kWorkloads[] = {
    {"fleet_daily_resume", perfbench::run_fleet_daily_resume, perfbench::fleet_layer_metrics},
    {"iss_kernels", perfbench::run_iss_kernels, perfbench::iss_layer_metrics},
};

/// Traced runs: every per-layer metric of the workload's own list must be
/// reported; the other workloads' metrics are reported as explicit zeros.
void complete_layers(perfbench::Result& r, const Workload& ran) {
  for (const Workload& w : kWorkloads) {
    for (const auto& [name, unit] : w.layers()) {
      const auto it = r.metrics.find(name);
      if (it != r.metrics.end()) {
        if (it->second.unit != unit) {
          r.fail("per-layer metric " + name + " has unit " + it->second.unit + ", expected " +
                 unit);
        }
      } else if (&w == &ran) {
        r.fail("per-layer metric " + name + " was not reported");
      } else {
        r.metric(name, 0.0, unit);
      }
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
               "--workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 != 1 || o.workload.empty() || o.workdir.empty() || !(o.seconds > 0.0)) {
    return usage();
  }

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage();

  perfbench::Result r;
  try {
    r = workload->run(o);
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }
  if (o.trace) complete_layers(r, *workload);
  // Each workload runs in its own process, so this is the workload's peak.
  r.metric("peak_rss_mib",
           static_cast<double>(iw::hostinfo::peak_rss_bytes()) / (1024.0 * 1024.0), "MiB");
  print_result(r);
  return r.failures.empty() ? 0 : 1;
}
