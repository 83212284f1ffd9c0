// Microbenchmark for the host-side optimizations of the functional pass:
//
//   1. The parallel functional pass: FastzStudy's per-seed inspect/execute
//      loop on a thread pool vs the serial path, A/B-interleaved with
//      min-of-repeats so OS noise cancels. The two studies are verified to
//      produce identical alignments before any time is reported.
//   2. The strip kernel's SoA fast path: the pointer-rotated SoA sweep
//      (instrumented and branch-light variants) vs the retained AoS
//      reference, on chromosome windows spanning multiple 32-lane strips.
//   3. The strip kernel, forced scalar vs the active SIMD ISA.
//   4. The single-thread functional pass, forced scalar vs the active ISA:
//      where the vectorized y-drop rows (the inspector's row scan) land.
//
// On a single-core host the functional-pass speedup degenerates to ~1x (or
// slightly below — pool overhead); the interesting single-core number is
// the serial-path regression, which must stay within noise of the
// pre-refactor loop.
#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fastz/fastz_pipeline.hpp"
#include "fastz/strip_kernel.hpp"
#include "report/experiment.hpp"
#include "sequence/benchmark_pairs.hpp"
#include "telemetry/bench_report.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace fastz;

namespace {

// Minimum wallclock of `repeats` calls to `fn`.
template <typename Fn>
double min_time_s(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    Timer timer;
    fn();
    const double t = timer.elapsed_s();
    if (rep == 0 || t < best) best = t;
  }
  return best;
}

// Throws unless `got` reproduces `want`; `what` names the two variants.
void check_identical(const FastzStudy& want, const FastzStudy& got, const std::string& what) {
  if (want.seeds() != got.seeds() || want.inspector_cells() != got.inspector_cells() ||
      want.alignments().size() != got.alignments().size()) {
    throw std::runtime_error(what + ": functional pass diverged");
  }
  for (std::size_t i = 0; i < want.alignments().size(); ++i) {
    const Alignment& s = want.alignments()[i];
    const Alignment& p = got.alignments()[i];
    if (s.score != p.score || s.a_begin != p.a_begin || s.b_begin != p.b_begin ||
        s.ops != p.ops) {
      throw std::runtime_error(what + ": functional pass diverged on alignment " +
                               std::to_string(i));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Functional-pass microbenchmark: serial vs multi-threaded FastzStudy "
      "construction, and AoS-reference vs SoA strip-kernel sweeps.");
  add_harness_flags(cli);
  cli.add_flag("repeats", "A/B-interleaved measurement repeats (minimum 3)", "5");
  cli.add_flag("kernel-window", "strip-kernel rectangle side (bp)", "512");
  cli.add_flag("kernel-windows", "number of chromosome windows per kernel sweep", "16");
  cli.add_flag("json", "write a BenchReport JSON to this path (empty: skip)",
               "BENCH_functional_pass.json");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const int repeats = static_cast<int>(std::max<std::int64_t>(3, cli.get_int("repeats")));
  const std::size_t window =
      static_cast<std::size_t>(std::max<std::int64_t>(32, cli.get_int("kernel-window")));
  const std::size_t windows =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("kernel-windows")));
  const std::string json_path = cli.get("json");
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  const std::vector<BenchmarkPair> pairs = same_genus_pairs(options.scale);
  const BenchmarkPair& spec = pairs.front();
  const SyntheticPair data =
      generate_pair(spec.model, spec.generator_seed, spec.species_a, spec.species_b);

  PipelineOptions serial_opts;
  serial_opts.max_seeds = options.max_seeds;
  serial_opts.sample_seed = options.sample_seed;
  serial_opts.threads = 1;
  PipelineOptions parallel_opts = serial_opts;
  parallel_opts.threads = options.threads;  // 0 = auto
  const std::size_t n_threads = resolve_thread_count(options.threads);
  const simd::Isa simd_isa = simd::active_isa();

  // --- Part 1: functional pass, serial vs pool, interleaved ---------------
  check_identical(FastzStudy(data.a, data.b, params, serial_opts),
                  FastzStudy(data.a, data.b, params, parallel_opts), "serial vs pool");

  double serial_min = 0.0;
  double parallel_min = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    const double s = min_time_s(1, [&] { FastzStudy(data.a, data.b, params, serial_opts); });
    const double p =
        min_time_s(1, [&] { FastzStudy(data.a, data.b, params, parallel_opts); });
    if (rep == 0 || s < serial_min) serial_min = s;
    if (rep == 0 || p < parallel_min) parallel_min = p;
  }

  std::cout << "=== Functional pass (" << spec.label << ", " << data.a.size() << " x "
            << data.b.size() << " bp) ===\n";
  TextTable pass({"Variant", "Threads", "Min wallclock (ms)", "Speedup"});
  pass.add_row({"serial", "1", TextTable::num(serial_min * 1e3, 1), "1.00"});
  pass.add_row({"pool", std::to_string(n_threads), TextTable::num(parallel_min * 1e3, 1),
                TextTable::num(serial_min / parallel_min, 2)});
  pass.render(std::cout, false);

  // --- Part 2: strip kernel, AoS reference vs SoA sweeps ------------------
  // Windows sliced from the generated chromosomes; every shape spans
  // multiple strips so the boundary-spill path is on the clock.
  std::vector<std::pair<SeqView, SeqView>> views;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t a_off = (w * 7919) % (data.a.size() - window);
    const std::size_t b_off = (w * 104729) % (data.b.size() - window);
    views.emplace_back(SeqView(data.a.codes().data() + a_off, 1, window),
                       SeqView(data.b.codes().data() + b_off, 1, window));
  }

  StripKernelOptions instrumented;  // census on, no traceback
  StripKernelOptions fast;          // branch-light score-only path
  fast.divergence_census = false;

  std::uint64_t aos_cells = 0;
  std::uint64_t soa_cells = 0;
  double aos_min = 0.0;
  double soa_min = 0.0;
  double soa_fast_min = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    aos_cells = 0;
    const double a = min_time_s(1, [&] {
      for (const auto& [va, vb] : views)
        aos_cells += strip_rectangle_dp_reference(va, vb, params, false).cells;
    });
    soa_cells = 0;
    const double s = min_time_s(1, [&] {
      for (const auto& [va, vb] : views)
        soa_cells += strip_rectangle_dp(va, vb, params, instrumented).cells;
    });
    const double f = min_time_s(1, [&] {
      for (const auto& [va, vb] : views)
        (void)strip_rectangle_dp(va, vb, params, fast);
    });
    if (rep == 0 || a < aos_min) aos_min = a;
    if (rep == 0 || s < soa_min) soa_min = s;
    if (rep == 0 || f < soa_fast_min) soa_fast_min = f;
  }
  if (aos_cells != soa_cells) {
    throw std::runtime_error("SoA kernel cell count diverged from AoS reference");
  }

  std::cout << "\n=== Strip kernel (" << windows << " windows of " << window << " x "
            << window << " bp, " << aos_cells << " cells/sweep) ===\n";
  TextTable kernel({"Variant", "Min wallclock (ms)", "GCUPS", "Speedup vs AoS"});
  auto kernel_row = [&](const char* name, double t) {
    kernel.add_row({name, TextTable::num(t * 1e3, 2),
                    TextTable::num(static_cast<double>(aos_cells) / t * 1e-9, 3),
                    TextTable::num(aos_min / t, 2)});
  };
  kernel_row("aos_reference (census)", aos_min);
  kernel_row("soa (census)", soa_min);
  kernel_row("soa fast (no census)", soa_fast_min);
  kernel.render(std::cout, false);

  // --- Part 3: strip kernel, scalar vs SIMD (interleaved A/B) -------------
  // The vectorized sweep must be bit-identical to the forced-scalar sweep —
  // checked field-for-field (trace included) before anything is timed, and
  // the process exits nonzero on any divergence. Timing interleaves the two
  // variants per repeat so thermal / scheduler drift cancels.
  double scalar_min = 0.0;
  double simd_min = 0.0;
  {
    StripKernelOptions traced;
    traced.want_traceback = true;
    for (const auto& [va, vb] : views) {
      StripKernelResult want;
      {
        simd::ScopedIsa force(simd::Isa::kScalar);
        want = strip_rectangle_dp(va, vb, params, traced);
      }
      simd::ScopedIsa force(simd_isa);
      const StripKernelResult got = strip_rectangle_dp(va, vb, params, traced);
      if (got.best.score != want.best.score || got.best.i != want.best.i ||
          got.best.j != want.best.j || got.cells != want.cells ||
          got.boundary_spill_bytes != want.boundary_spill_bytes ||
          got.divergence_histogram != want.divergence_histogram ||
          got.trace != want.trace || got.ops != want.ops) {
        throw std::runtime_error(std::string("SIMD strip kernel (") +
                                 simd::isa_name(simd_isa) +
                                 ") diverged from forced-scalar sweep");
      }
    }

    for (int rep = 0; rep < repeats; ++rep) {
      double s = 0.0;
      {
        simd::ScopedIsa force(simd::Isa::kScalar);
        s = min_time_s(1, [&] {
          for (const auto& [va, vb] : views)
            (void)strip_rectangle_dp(va, vb, params, fast);
        });
      }
      double v = 0.0;
      {
        simd::ScopedIsa force(simd_isa);
        v = min_time_s(1, [&] {
          for (const auto& [va, vb] : views)
            (void)strip_rectangle_dp(va, vb, params, fast);
        });
      }
      if (rep == 0 || s < scalar_min) scalar_min = s;
      if (rep == 0 || v < simd_min) simd_min = v;
    }
  }

  std::cout << "\n=== Strip kernel, scalar vs SIMD (score-only, "
            << simd::isa_report() << ") ===\n";
  TextTable ab({"Variant", "Min wallclock (ms)", "GCUPS", "Speedup vs scalar"});
  auto ab_row = [&](const std::string& name, double t) {
    ab.add_row({name, TextTable::num(t * 1e3, 2),
                TextTable::num(static_cast<double>(aos_cells) / t * 1e-9, 3),
                TextTable::num(scalar_min / t, 2)});
  };
  ab_row("scalar", scalar_min);
  ab_row(simd::isa_name(simd_isa), simd_min);
  ab.render(std::cout, false);

  // --- Part 4: functional pass, scalar vs SIMD (interleaved A/B) ----------
  // Single-thread studies, so the ratio is the vectorized rows' gain on the
  // whole pass (inspector row scan, phase-A precompute, strip kernel), not
  // a kernel's. Alignments are checked identical before timing.
  const auto pass_under = [&](simd::Isa isa) {
    simd::ScopedIsa force(isa);
    return FastzStudy(data.a, data.b, params, serial_opts);
  };
  check_identical(pass_under(simd::Isa::kScalar), pass_under(simd_isa),
                  std::string("scalar vs ") + simd::isa_name(simd_isa));
  double pass_scalar_min = 0.0;
  double pass_simd_min = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    const double s = min_time_s(1, [&] { pass_under(simd::Isa::kScalar); });
    const double v = min_time_s(1, [&] { pass_under(simd_isa); });
    if (rep == 0 || s < pass_scalar_min) pass_scalar_min = s;
    if (rep == 0 || v < pass_simd_min) pass_simd_min = v;
  }

  std::cout << "\n=== Functional pass, scalar vs SIMD (1 thread) ===\n";
  TextTable pass_ab({"Variant", "Min wallclock (ms)", "Speedup vs scalar"});
  pass_ab.add_row({"scalar", TextTable::num(pass_scalar_min * 1e3, 1), "1.00"});
  pass_ab.add_row({simd::isa_name(simd_isa), TextTable::num(pass_simd_min * 1e3, 1),
                   TextTable::num(pass_scalar_min / pass_simd_min, 2)});
  pass_ab.render(std::cout, false);

  if (!json_path.empty()) {
    telemetry::BenchReport report("functional_pass");
    report.set_repeats(repeats);
    add_harness_config(report, options);
    report.add_config("kernel_window", std::to_string(window));
    report.add_config("kernel_windows", std::to_string(windows));
    report.add_metric("pass.serial_min_s", serial_min);
    report.add_metric("pass.pool_min_s", parallel_min);
    report.add_metric("pass.speedup", serial_min / parallel_min);
    report.add_metric("kernel.aos_min_s", aos_min);
    report.add_metric("kernel.soa_min_s", soa_min);
    report.add_metric("kernel.soa_fast_min_s", soa_fast_min);
    report.add_metric("kernel.soa_speedup", aos_min / soa_min);
    report.add_metric("kernel.soa_fast_speedup", aos_min / soa_fast_min);
    report.add_metric("kernel.scalar_min_s", scalar_min);
    report.add_metric("kernel.simd_min_s", simd_min);
    report.add_metric("kernel.simd_speedup", scalar_min / simd_min);
    report.add_metric("pass.scalar_min_s", pass_scalar_min);
    report.add_metric("pass.simd_min_s", pass_simd_min);
    report.add_metric("pass.simd_speedup", pass_scalar_min / pass_simd_min);
    if (report.write_file(json_path)) {
      std::cout << "\nwrote " << json_path << "\n";
    } else {
      std::cerr << "\nfailed to write " << json_path << "\n";
    }
  }
  return 0;
}
