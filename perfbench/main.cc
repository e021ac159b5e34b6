// perfbench: the end-to-end benchmark's binary (see README.md).
//
//   perfbench --workload <search_ann|search_exact|train>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
// Every end-to-end metric with --trace 0, every per-layer metric with
// --trace 1. run.py builds this binary and supplies --workdir.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    options.threads = CPU_COUNT(&cpus);
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (options.workdir.empty()) return Usage("--workdir is required");

  perfbench::Result result;
  if (options.workload == "search_ann") {
    perfbench::RunSearchAnn(options, result);
  } else if (options.workload == "search_exact") {
    perfbench::RunSearchExact(options, result);
  } else if (options.workload == "train") {
    perfbench::RunTrain(options, result);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!options.trace) result.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  if (result.attempted == 0) result.Fail("no operation was attempted");
  const std::string line =
      options.trace ? result.ToJson(perfbench::PerLayerMetrics(), true)
                    : result.ToJson(perfbench::EndToEndMetrics(), false);
  std::printf("%s\n", line.c_str());
  return 0;
}
