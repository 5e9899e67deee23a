// The repo benchmark's driver binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--perturb]
//
// Workloads: inproc_zipf, inproc_table_bound (see inproc.cc). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; with --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set, which adds a short service fleet per
// tracker (service.cc), and the layer tables go to stderr. --tiny
// shrinks every size (smoke test); --perturb corrupts one estimate before
// its check (and, traced, one service fleet estimate), which must then be
// counted as a failure.

#include <signal.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  perfbench::Log("%s", why);
  perfbench::Log(
      "usage: perfbench --workload inproc_zipf|inproc_table_bound --seed N "
      "--seconds S --trace 0|1 [--tiny] [--perturb]");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--tiny" && arg != "--perturb") {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) {
        Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("--trace wants 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--perturb") {
      config.perturb = true;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");

  // A peer that dies mid-write must surface as a failed write that is
  // counted, not end the run.
  signal(SIGPIPE, SIG_IGN);
  perfbench::Report report;
  if (config.workload == "inproc_zipf" ||
      config.workload == "inproc_table_bound") {
    perfbench::RunInprocWorkload(config, &report);
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }
  report.PrintJson();
  return 0;
}
