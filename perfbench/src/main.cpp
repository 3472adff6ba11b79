// perfbench — the repository benchmark.
//
//   perfbench --workload <batch-dense|traverse-sparse|service-mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//   perfbench --self-test
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  See README.md next to this
// directory for what each workload and metric means.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for the whole process, set before any thread starts:
  // with glibc's default per-thread arenas, peak RSS (VmHWM) of the same
  // run varies by about 10% with which thread freed which block.  The
  // library allocates a handful of blocks per query, so the shared arena
  // costs the measured paths nothing visible.
  mallopt(M_ARENA_MAX, 1);
  perfbench::RunOptions opts;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self_test = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-dir" && has_value) {
      opts.trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (self_test) {
    const int failures = perfbench::run_self_tests();
    std::fprintf(stderr, "self-test: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (opts.workload.empty() || !(opts.seconds > 0.0)) return usage();
  return perfbench::run_workload(opts);
}
