// Section 6 — remaining bottlenecks: operational-intensity analysis.
//
// Paper: on the RTX 3080 (29.77 TFLOP/s, 760 GB/s) the ridge point is 39
// ops/byte nominal, derated by 2.56x for SIMD divergence to 15.2 ops/byte.
// The inspector achieves ~24 ops/byte (slightly compute-bound: only the
// strip-boundary lane writes 12 B of scores per diagonal), the executor
// ~6.5 ops/byte (slightly memory-bound: one packed traceback byte per
// cell). Without FastZ's optimizations both stages would be deeply
// memory-bound (~0.7 ops/byte).
#include <iostream>

#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

namespace {

double intensity(std::uint64_t ops, std::uint64_t bytes) {
  return bytes == 0 ? 0.0 : static_cast<double>(ops) / static_cast<double>(bytes);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Section 6 — operational intensity of the inspector and "
                "executor from counted work, vs the Ampere ridge point.");
  add_harness_flags(cli);
  cli.add_flag("pair", "benchmark pair label", "C1_1,1");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  std::vector<BenchmarkPair> specs = {find_pair(cli.get("pair"), options.scale)};
  const std::vector<PreparedPair> prepared = prepare_pairs(specs, params, options);
  const PreparedPair& pair = prepared.front();
  const gpusim::DeviceSpec ampere = default_devices().ampere;

  // Nominal and derated ridge points from the device's peak numbers
  // (Section 6 uses 29.77 TFLOP/s and 760 GB/s => 39, and 39/2.56 = 15.2).
  const double peak_ops = static_cast<double>(ampere.lanes) * ampere.clock_ghz * 1e9 * 2;
  const double ridge_nominal = peak_ops / (ampere.mem_bandwidth_gbps * 1e9);
  const double ridge_derated = ridge_nominal / ampere.divergence_derate;

  auto report = [&](const char* name, const FastzConfig& config) {
    const FastzRun run = pair.study->derive(config, ampere);
    // Ops are the DP recurrence operations actually executed (9 per cell
    // across the warp's 32 lanes per step).
    const std::uint64_t insp_ops = run.inspector_cost.warp_instructions * 32;
    const std::uint64_t exec_ops = run.executor_cost.warp_instructions * 32;
    const std::uint64_t insp_bytes = run.inspector_cost.mem_bytes;
    const std::uint64_t exec_bytes = run.executor_cost.mem_bytes;

    TextTable t({"Stage (" + std::string(name) + ")", "Ops", "Bytes", "Ops/byte",
                 "Regime vs ridge " + TextTable::num(ridge_derated, 1)});
    auto regime = [&](double oi) {
      return oi >= ridge_derated ? std::string("compute-bound")
                                 : std::string("memory-bound");
    };
    const double oi_i = intensity(insp_ops, insp_bytes);
    const double oi_e = intensity(exec_ops, exec_bytes);
    t.add_row({"inspector", TextTable::num(insp_ops), TextTable::num(insp_bytes),
               TextTable::num(oi_i, 1), regime(oi_i)});
    t.add_row({"executor", TextTable::num(exec_ops), TextTable::num(exec_bytes),
               TextTable::num(oi_e, 1), regime(oi_e)});
    t.render(std::cout);
    std::cout << '\n';
  };

  std::cout << "=== Section 6: operational intensity (" << pair.spec.label
            << ", Ampere) ===\n";
  std::cout << "Nominal ridge: " << TextTable::num(ridge_nominal, 1)
            << " ops/byte; derated by " << TextTable::num(ampere.divergence_derate, 2)
            << "x divergence: " << TextTable::num(ridge_derated, 1) << " ops/byte\n\n";

  report("FastZ", FastzConfig::full());
  report("no cyclic buffers", [] {
    FastzConfig c = FastzConfig::full();
    c.cyclic_buffers = false;
    c.staged_traceback_writes = false;
    return c;
  }());

  std::cout << "Paper's values to compare: inspector ~24 ops/byte (slightly "
               "compute-bound), executor ~6.5 ops/byte (slightly memory-"
               "bound), ridge 15.2; without the optimizations ~0.7-0.75 "
               "ops/byte (deeply memory-bound).\n";
  return 0;
}
