// fastz_perfbench — the repository benchmark's binary.
//
//   fastz_perfbench --workload genome_pair|longtail|service_zipf --seed N
//                   --seconds S --trace 0|1 [--size full|tiny]
//
// Prints provenance and check lines ("# key=value"), then, as the last line
// of stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when an output check fails, 2 on a usage or run error
// (without a result line). Usually started through perfbench/run.py.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "fastz_perfbench: " << error << "\n"
            << "usage: fastz_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--size full|tiny]\nworkloads:";
  for (const std::string& name : perfbench::workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args = {
      {"workload", ""}, {"seed", "0"}, {"seconds", "10"}, {"trace", "0"}, {"size", "full"}};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || !args.count(flag.substr(2)) || i + 1 >= argc) {
      return usage("bad argument '" + flag + "'");
    }
    args[flag.substr(2)] = argv[i + 1];
  }
  perfbench::RunOptions options;
  try {
    options.workload = args["workload"];
    options.seed = std::stoull(args["seed"]);
    options.seconds = std::stod(args["seconds"]);
    options.trace = std::stoi(args["trace"]) != 0;
    if (args["size"] != "full" && args["size"] != "tiny") return usage("bad --size");
    options.tiny = args["size"] == "tiny";
  } catch (const std::exception&) {
    return usage("unparseable argument value");
  }
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  try {
    const perfbench::Outcome outcome = perfbench::run_workload(options);
    for (const std::string& line : outcome.notes) std::cout << "# " << line << "\n";
    for (const perfbench::Metric& m : outcome.report.metrics()) {
      std::cout << "# metric " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    outcome.report.write_result_line(std::cout, outcome.correct, outcome.attempted,
                                     outcome.failed);
    std::cout.flush();
    return outcome.correct ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "fastz_perfbench: run failed: " << e.what() << "\n";
    return 2;
  }
}
