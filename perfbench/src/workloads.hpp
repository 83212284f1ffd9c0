// The benchmark's workloads. Each makes its inputs from the workload seed,
// measures for about `seconds`, checks its outputs, and returns the metric
// set the benchmark prints: the end-to-end metrics on an untraced run, the
// per-layer metrics on a traced one (trace = true).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // small inputs for the benchmark's own tests
};

struct Outcome {
  Report report;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // "key=value" provenance and check lines

  void check(bool ok, const std::string& what);
  void note(const std::string& key, const std::string& value);
};

const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown workload.
Outcome run_workload(const RunOptions& options);

}  // namespace perfbench
