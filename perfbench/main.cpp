// art9_perfbench: the layered repository benchmark.
//
//   art9_perfbench --workload sim_long|serve_short|toolchain_cold
//                  --seed N --seconds S --trace 0|1
//                  [--smoke] [--corrupt-golden] [--trace-out FILE]
//
// Prints a run header (workload, seed, host fingerprint) and, as its
// last line, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  Exits 1 when any correctness check failed, 2 on a usage
// error or a non-Release build.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: art9_perfbench --workload sim_long|serve_short|toolchain_cold --seed N "
               "--seconds S --trace 0|1 [--smoke] [--corrupt-golden] [--trace-out FILE]\n");
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = value() != "0";
      else if (arg == "--trace-out") o.trace_out = value();
      else if (arg == "--smoke") o.smoke = true;
      else if (arg == "--corrupt-golden") o.corrupt_golden = true;
      else throw std::invalid_argument("unknown argument " + arg);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "art9_perfbench: %s\n", e.what());
    usage();
    return 2;
  }
  if (std::strcmp(ART9_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "art9_perfbench: refusing a %s build; timings need Release\n",
                 ART9_BENCH_BUILD_TYPE);
    return 2;
  }

  std::printf(
      "{\"bench\": \"art9_perfbench\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"smoke\": %d, \"host\": {\"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      o.smoke ? 1 : 0, o.nproc, ART9_BENCH_COMPILER, ART9_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  perfbench::Tracer tracer;
  perfbench::Report report;
  try {
    if (o.workload == "sim_long") {
      perfbench::run_sim_long(o, tracer, report);
    } else if (o.workload == "serve_short") {
      perfbench::run_serve_short(o, tracer, report);
    } else if (o.workload == "toolchain_cold") {
      perfbench::run_toolchain_cold(o, tracer, report);
    } else {
      std::fprintf(stderr, "art9_perfbench: unknown workload '%s'\n", o.workload.c_str());
      usage();
      return 2;
    }
    if (o.trace) {
      perfbench::probe_layers(o, report.metrics);
      report.metrics["failed_frac"] = {
          report.attempted > 0
              ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
              : 1.0,
          "fraction"};
      if (!o.trace_out.empty()) tracer.write(o.trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "art9_perfbench: %s\n", e.what());
    return 1;
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    line += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
