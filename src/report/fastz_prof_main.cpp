// fastz_prof — per-kernel profiler report on the virtual GPU.
//
// Runs the benchmark workload with a ProfilerSession installed and reports
// what a hardware profiler would show on a real device: a per-kernel table
// (achieved occupancy, SM load-imbalance factor, bulk-synchronous tail,
// stall share, score-traffic elision), the session summary with the paper's
// two headline counters (eager-traceback hit rate > 0.8, score-traffic
// elision ~ 0.96), a `fastz.profile/v1` JSON for fastz_benchdiff / perf
// trajectories, and optionally a Chrome trace merging the host spans with
// the modeled kernel timeline (virtual-GPU process lane). See
// docs/PROFILING.md.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "gpusim/profiler.hpp"
#include "report/experiment.hpp"
#include "report/profile.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"

using namespace fastz;

namespace {

const gpusim::DeviceSpec* pick_device(const DeviceSet& devices, const std::string& name) {
  if (name == "pascal") return &devices.pascal;
  if (name == "volta") return &devices.volta;
  if (name == "ampere") return &devices.ampere;
  return nullptr;
}

bool pick_config(const std::string& name, FastzConfig& out) {
  if (name == "full" || name == "fastz") {
    out = FastzConfig::full();
  } else if (name == "load_balance") {
    out = FastzConfig::load_balance_only();
  } else if (name == "cyclic_buffers") {
    out = FastzConfig::load_balance_only().with_cyclic_buffers();
  } else if (name == "eager_traceback") {
    out = FastzConfig::load_balance_only().with_cyclic_buffers().with_eager_traceback();
  } else if (name == "single_stream") {
    out = FastzConfig::full().with_streams(1);
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fastz_prof — virtual-GPU profiler: per-kernel hardware "
                "counters, per-SM load balance, and the paper's traffic "
                "counters over the benchmark workload.");
  add_harness_flags(cli);
  cli.add_flag("device", "GPU to profile on: pascal | volta | ampere", "ampere");
  cli.add_flag("config",
               "configuration: full | load_balance | cyclic_buffers | "
               "eager_traceback | single_stream",
               "full");
  cli.add_flag("pairs", "profile only the first N benchmark pairs (0 = all)", "0");
  cli.add_flag("csv", "emit the kernel table as CSV", "0");
  cli.add_flag("json", "write fastz.profile/v1 JSON to this path (empty: skip)",
               "fastz_profile.json");
  cli.add_flag("trace",
               "write a merged host + virtual-GPU Chrome trace to this path "
               "(enables telemetry)",
               "");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;

  const bool csv = cli.get_bool("csv");
  const std::string json_path = cli.get("json");
  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) telemetry::set_enabled(true);
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  const DeviceSet devices = default_devices();
  const gpusim::DeviceSpec* device = pick_device(devices, cli.get("device"));
  if (device == nullptr) {
    std::cerr << "unknown --device '" << cli.get("device")
              << "' (expected pascal | volta | ampere)\n";
    return 2;
  }
  FastzConfig config;
  if (!pick_config(cli.get("config"), config)) {
    std::cerr << "unknown --config '" << cli.get("config") << "'\n";
    return 2;
  }

  std::vector<BenchmarkPair> pairs = same_genus_pairs(options.scale);
  const std::int64_t limit = cli.get_int("pairs");
  if (limit > 0 && static_cast<std::size_t>(limit) < pairs.size()) {
    pairs.resize(static_cast<std::size_t>(limit));
  }
  const std::vector<PreparedPair> prepared = prepare_pairs(pairs, params, options);

  gpusim::ProfilerSession session;
  {
    gpusim::ScopedProfiler scoped(session);
    for (const PreparedPair& pair : prepared) (void)pair.study->derive(config, *device);
  }

  std::cout << "=== fastz_prof: " << cli.get("config") << " on " << cli.get("device")
            << ", " << prepared.size() << " pair(s) ===\n";
  print_profile(std::cout, session, csv);

  int rc = 0;
  if (!json_path.empty()) {
    const std::string name = "prof_" + cli.get("config") + "_" + cli.get("device");
    if (write_profile_file(json_path, session, name, cli.get("device"))) {
      std::cout << "wrote " << json_path << "\n";
    } else {
      std::cerr << "failed to write " << json_path << "\n";
      rc = 2;
    }
  }
  if (!trace_path.empty()) {
    std::vector<telemetry::TraceEvent> events =
        telemetry::TraceRecorder::global().snapshot();
    const std::vector<telemetry::TraceEvent> gpu = profile_trace_events(session);
    events.insert(events.end(), gpu.begin(), gpu.end());
    std::ofstream out(trace_path);
    if (out) {
      telemetry::write_chrome_trace(out, events);
    }
    if (out && out.good()) {
      std::cout << "wrote " << trace_path << "\n";
    } else {
      std::cerr << "failed to write " << trace_path << "\n";
      rc = 2;
    }
  }
  return rc;
}
