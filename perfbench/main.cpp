// rfidbench — one workload of the rfidsim benchmark per invocation.
//
//   rfidbench --workload paper_sweep|fleet_replay --seed N
//             --seconds S --trace 0|1 [--trace-out spans.json]
//
// Prints a labelled report, a `DIGESTS {...}` line with the output digests,
// and as its last line one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics the workload computed with
// --trace 0, the per-layer ones with --trace 1, each with its unit.
// run.py checks them against BENCHMARK.json. Exits 1 when any output check
// failed, 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "rfidbench: %s\nusage: rfidbench --workload paper_sweep|fleet_replay "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        args.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value);
      } else if (arg == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (arg == "--trace-out") {
        args.trace_out = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  args.threads = std::min(4u, nproc);
  std::printf("rfidbench: workload %s, seed %llu, %.3g s, trace %d, nproc %u, build %s\n",
              workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc, PERFBENCH_BUILD_TYPE);

  Outcome out;
  try {
    if (workload == "paper_sweep") {
      out = run_paper_sweep(args);
    } else if (workload == "fleet_replay") {
      out = run_fleet_replay(args);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    ++out.attempted;
    out.fail(std::string("uncaught exception: ") + e.what());
  }

  if (!args.trace) {
    out.metric("peak_rss_bytes", static_cast<double>(peak_rss_bytes()), "bytes", "resident");
  }
  std::printf("%s metrics (%s):\n", args.trace ? "per-layer" : "end-to-end",
              args.trace ? "traced run" : "tracing off");
  for (const auto& [name, m] : out.metrics) report(name.c_str(), m.value, m.unit.c_str(), m.clock.c_str());

  std::printf("DIGESTS {");
  bool first = true;
  for (const auto& [name, hex] : out.digests) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", name.c_str(), hex.c_str());
    first = false;
  }
  std::printf("}\n");

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  first = true;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
