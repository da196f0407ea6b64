// perfbench: the repository benchmark.  One invocation runs one workload
// for one seed and prints its metrics; run.py builds this program and is
// the command BENCHMARK.json names.  See ../README.md.
//
//   perfbench --workload <desk-map-seq|localize-mixed-serve>
//             --seed <n> --seconds <s> --trace <0|1>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <desk-map-seq|localize-mixed-serve> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atoi(value);
    else if (key == "--trace") args.trace = std::strcmp(value, "0") != 0;
    else return usage();
  }
  if (argc % 2 == 0 || args.seconds < 1) return usage();

  perfbench::Report report;
  if (args.workload == "desk-map-seq")
    perfbench::run_desk_map_seq(args, report);
  else if (args.workload == "localize-mixed-serve")
    perfbench::run_localize_mixed_serve(args, report);
  else
    return usage();
  report.finish(args);
  return report.correct() ? 0 : 1;
}
