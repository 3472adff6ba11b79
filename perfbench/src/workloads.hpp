// The three benchmark workloads and the one entry point that runs them.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans into.
  std::string trace_dir = ".bench_build/traces";
};

/// Run one workload and print its result line; returns the exit code
/// (0 = every output checked and correct, 1 = a failed or wrong query,
/// 2 = bad arguments, 3 = unoptimised build).
int run_workload(const RunOptions& opts);

/// The harness self-tests (selftest.cpp); returns the number of failures.
int run_self_tests();

}  // namespace perfbench
