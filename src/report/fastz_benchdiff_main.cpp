// fastz_benchdiff — regression gate over BENCH_*.json / fastz.profile/v1.
//
// Compares the current report against a checked-in baseline and exits
// nonzero when a metric regresses beyond tolerance: time metrics may grow
// by at most --time-tolerance (relative), every other metric (speedups,
// hit rates, elision/occupancy ratios) may drop by at most
// --drop-tolerance. CI runs this against bench/baselines/ — see
// docs/PROFILING.md. Exit codes: 0 ok, 1 regression, 2 usage/IO error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "report/benchdiff.hpp"
#include "util/cli.hpp"

using namespace fastz;

namespace {

bool slurp(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return in.good() || in.eof();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fastz_benchdiff — compares two bench-report / profile JSON "
                "files and fails on regressions beyond tolerance.");
  cli.add_flag("baseline", "baseline report JSON (required)", "");
  cli.add_flag("current", "current report JSON (required)", "");
  cli.add_flag("time-tolerance",
               "max allowed relative increase of time metrics (0.10 = +10%)", "0.10");
  cli.add_flag("drop-tolerance",
               "max allowed relative drop of higher-is-better metrics", "0.02");
  cli.add_flag("ignore", "comma-separated key substrings to skip", "");
  cli.add_flag("counters", "also compare the counters block", "0");
  cli.add_flag("allow-missing", "tolerate baseline metrics absent from current", "0");
  cli.add_flag("verbose", "print unchanged metrics too", "0");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;

  const std::string baseline_path = cli.get("baseline");
  const std::string current_path = cli.get("current");
  if (baseline_path.empty() || current_path.empty()) {
    std::cerr << "--baseline and --current are required\n" << cli.help();
    return 2;
  }

  DiffRules rules;
  rules.time_tolerance = cli.get_double("time-tolerance");
  rules.drop_tolerance = cli.get_double("drop-tolerance");
  rules.compare_counters = cli.get_bool("counters");
  rules.allow_missing = cli.get_bool("allow-missing");
  {
    const std::string ignore = cli.get("ignore");
    std::size_t start = 0;
    while (start < ignore.size()) {
      std::size_t comma = ignore.find(',', start);
      if (comma == std::string::npos) comma = ignore.size();
      if (comma > start) rules.ignore.push_back(ignore.substr(start, comma - start));
      start = comma + 1;
    }
  }

  std::string baseline_text;
  std::string current_text;
  if (!slurp(baseline_path, baseline_text)) {
    std::cerr << "cannot read baseline '" << baseline_path << "'\n";
    return 2;
  }
  if (!slurp(current_path, current_text)) {
    std::cerr << "cannot read current '" << current_path << "'\n";
    return 2;
  }

  telemetry::JsonValue baseline;
  telemetry::JsonValue current;
  try {
    baseline = telemetry::JsonValue::parse(baseline_text);
    current = telemetry::JsonValue::parse(current_text);
  } catch (const std::exception& e) {
    std::cerr << "JSON parse error: " << e.what() << "\n";
    return 2;
  }

  // Reports from different SIMD ISAs are bit-identical in results but not
  // timing-comparable — warn, never fail (the numeric gates still apply).
  const std::string baseline_isa = report_config_string(baseline, "simd_isa");
  const std::string current_isa = report_config_string(current, "simd_isa");
  if (!baseline_isa.empty() && !current_isa.empty() && baseline_isa != current_isa) {
    std::cerr << "warning: SIMD ISA mismatch: baseline ran on '" << baseline_isa
              << "', current on '" << current_isa
              << "' — wallclock comparisons are unreliable\n";
  }

  const DiffResult result = diff_reports(baseline, current, rules);
  std::cout << "baseline " << baseline_path << "\ncurrent  " << current_path << "\n";
  print_diff(std::cout, result, cli.get_bool("verbose"));
  return result.regressed ? 1 : 0;
}
