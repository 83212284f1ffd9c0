// Figure 9 — isolating the impact of FastZ's optimizations.
//
// Paper: progressively composed configurations (each bar includes all the
// bars to its left), mean across benchmarks, on three GPUs:
//   inspector-executor + load balancing:   0.92x (Pascal) .. 2.8x (Ampere)
//   + cyclic use-and-discard buffers:      4.7x / 6.1x / 17x
//   + eager traceback:                     15x / 21x / 46x
//   + executor trimming (= FastZ):         43x / 93x / 111x
//   FastZ with a single CUDA stream:       /1.7, /1.7, /2.4
// No single optimization dominates; relative contributions are ~1.4x
// (inspector+LB), 5.8x (cyclic), 3x (eager), 3.4x (trimming).
//
// The ladder is persisted as a BenchReport (BENCH_fig9.json); with --trace
// the run also emits a Chrome trace.
#include <iostream>
#include <vector>

#include "gpusim/profiler.hpp"
#include "report/experiment.hpp"
#include "report/profile.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli("Figure 9 — progressive ablation of FastZ's optimizations "
                "on the three GPUs (mean speedup over sequential LASTZ).");
  add_harness_flags(cli);
  cli.add_flag("csv", "emit CSV instead of an aligned table", "0");
  cli.add_flag("json", "write a BenchReport JSON to this path (empty: skip)",
               "BENCH_fig9.json");
  cli.add_flag("trace", "write a Chrome trace to this path (enables telemetry)", "");
  cli.add_flag("profile",
               "write a fastz.profile/v1 JSON of a profiled FastZ/Ampere sweep "
               "to this path (empty: skip)",
               "");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const bool csv = cli.get_bool("csv");
  const std::string json_path = cli.get("json");
  const std::string trace_path = cli.get("trace");
  const std::string profile_path = cli.get("profile");
  if (!trace_path.empty()) telemetry::set_enabled(true);
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  const std::vector<PreparedPair> prepared =
      prepare_pairs(same_genus_pairs(options.scale), params, options);
  const DeviceSet devices = default_devices();

  struct Config {
    const char* name;
    const char* key;  // metric-friendly slug
    FastzConfig config;
  };
  std::vector<Config> ladder;
  {
    FastzConfig base = FastzConfig::load_balance_only();
    ladder.push_back({"inspector-executor + load balancing", "load_balance", base});
    FastzConfig cyc = base;
    cyc.with_cyclic_buffers();
    ladder.push_back({"+ cyclic use-and-discard", "cyclic_buffers", cyc});
    FastzConfig eag = cyc;
    eag.with_eager_traceback();
    ladder.push_back({"+ eager traceback", "eager_traceback", eag});
    FastzConfig trim = eag;
    trim.with_executor_trimming();
    ladder.push_back({"+ executor trimming (= FastZ)", "fastz_full", trim});
    FastzConfig single = trim;
    single.streams = 1;
    ladder.push_back({"FastZ, single stream", "single_stream", single});
  }

  auto mean_speedup = [&](const FastzConfig& config, const gpusim::DeviceSpec& dev) {
    std::vector<double> speedups;
    speedups.reserve(prepared.size());
    for (const PreparedPair& pair : prepared) {
      const double t_seq = modeled_sequential_s(*pair.study);
      speedups.push_back(t_seq / pair.study->derive(config, dev).modeled.total_s());
    }
    return geometric_mean(speedups);
  };

  telemetry::BenchReport report("fig9_ablation");
  add_harness_config(report, options);

  std::cout << "=== Figure 9: isolating the impact of FastZ's optimizations ===\n";
  TextTable t({"Configuration", "Pascal", "Volta", "Ampere"});
  for (const Config& c : ladder) {
    const double pascal = mean_speedup(c.config, devices.pascal);
    const double volta = mean_speedup(c.config, devices.volta);
    const double ampere = mean_speedup(c.config, devices.ampere);
    t.add_row({c.name, TextTable::num(pascal, 1), TextTable::num(volta, 1),
               TextTable::num(ampere, 1)});
    report.add_metric(std::string(c.key) + ".pascal", pascal);
    report.add_metric(std::string(c.key) + ".volta", volta);
    report.add_metric(std::string(c.key) + ".ampere", ampere);
  }
  t.render(std::cout, csv);

  // Profiled sweep of the full configuration on Ampere — the paper's
  // headline counters (eager hit rate, elision ratio) ride along in the
  // BenchReport so fastz_benchdiff gates them.
  gpusim::ProfilerSession session;
  if (!profile_path.empty()) {
    const gpusim::ScopedProfiler scoped(session);
    for (const PreparedPair& pair : prepared) {
      (void)pair.study->derive(FastzConfig::full(), devices.ampere);
    }
    if (write_profile_file(profile_path, session, "fig9_ablation", "ampere")) {
      std::cout << "wrote " << profile_path << "\n";
    } else {
      std::cerr << "failed to write " << profile_path << "\n";
    }
    report.add_metric("profile.eager_hit_rate", session.eager_hit_rate());
    report.add_metric("profile.elision_ratio", session.score_elision_ratio());
  }

  if (!json_path.empty()) {
    report.add_registry_counters(telemetry::MetricsRegistry::global());
    if (report.write_file(json_path)) {
      std::cout << "wrote " << json_path << "\n";
    } else {
      std::cerr << "failed to write " << json_path << "\n";
    }
  }
  if (!trace_path.empty()) {
    if (telemetry::write_chrome_trace_file(trace_path)) {
      std::cout << "wrote " << trace_path << "\n";
    } else {
      std::cerr << "failed to write " << trace_path << "\n";
    }
  }

  std::cout << "\nPaper's ladder to compare (Pascal/Volta/Ampere): 0.92-2.8x -> "
               "4.7/6.1/17x -> 15/21/46x -> 43/93/111x; single stream divides "
               "FastZ by 1.7/1.7/2.4.\n";
  return 0;
}
