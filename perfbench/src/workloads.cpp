#include "workloads.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "replay.hpp"
#include "report/experiment.hpp"
#include "sequence/benchmark_pairs.hpp"
#include "sequence/genome_synth.hpp"
#include "service_loop.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace perfbench {

using fastz::FastzStudy;
using fastz::PreparedPair;
using fastz::Timer;

void Outcome::check(bool ok, const std::string& what) {
  correct = correct && ok;
  note("check." + what, ok ? "ok" : "FAILED");
}

void Outcome::note(const std::string& key, const std::string& value) {
  notes.push_back(key + "=" + value);
}

namespace {

// A run measures at least kMinRounds rounds (see measure_rounds), and more
// while another round fits in kMeasureShare of --seconds; the rest covers
// set-up and output checks. After each round's timed step, derive() runs
// for kDeriveShare of the step's time.
constexpr double kMeasureShare = 0.85;
constexpr double kDeriveShare = 0.2;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 0.25;
constexpr double kRoundSetupSeconds = 0.05;
// 1000 samples leave ten beyond the reported p99.
constexpr std::size_t kMinDeriveSamples = 1000;
constexpr std::uint64_t kSampleSeed = 24397;  // the figure harness's default
// Untimed requests a fresh server answers before the timed ones, so the
// timed requests see a service whose cache holds its hottest entries, not
// the burst of concurrent misses every cold start begins with.
constexpr std::size_t kServiceWarmup = 2000;
// service_zipf re-runs its 3 s oracle pass only every few rounds.
constexpr std::size_t kServicePassEvery = 3;
constexpr std::size_t kServiceClients = 4;

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string joined(const Samples& samples) {
  std::string s;
  for (const double v : samples.values()) {
    if (!s.empty()) s += ',';
    s += num(v);
  }
  return s;
}

// Runs `make` at least `repeats` times and for at least `min_seconds`,
// recording each duration; returns the last result. Workloads set up
// kSetupRepeats times and for kSetupSeconds before measuring (cheap set-ups
// repeat many times), and again at least once and for kRoundSetupSeconds
// after every measured round, so the median of setup_s spans the whole run
// rather than only its first moments.
template <class Make>
auto timed_setup(const Make& make, Samples& setup_s, std::size_t repeats = kSetupRepeats,
                 double min_seconds = kSetupSeconds) {
  decltype(make()) result;
  const Timer elapsed;
  for (std::size_t k = 0; k < repeats || elapsed.elapsed_s() < min_seconds; ++k) {
    Timer timer;
    result = make();
    setup_s.add(timer.elapsed_s());
  }
  return result;
}

// Measures round by round: each round runs `step(round)` (the workload's
// timed work; round 0 also fills `studies`), then a derive chunk, then
// more timed set-ups. Rounds go on while another fits in kMeasureShare of
// --seconds, and for at least kMinRounds; the derive sweep is then topped
// up to kMinDeriveSamples. The interleaving spreads every metric's samples
// over the whole run, so one slow round moves no median. Returns the
// process's peak RSS right after measuring, before any output check runs.
template <class Step, class Setup>
double measure_rounds(const RunOptions& options, const Step& step, const Setup& setup,
                      const std::vector<const FastzStudy*>& studies, Samples& setup_s,
                      DeriveSweep& sweep) {
  Timer elapsed;
  std::size_t rounds = 0;
  do {
    Timer timer;
    step(rounds);
    derive_for(sweep, studies, kDeriveShare * timer.elapsed_s());
    timed_setup(setup, setup_s, 1, kRoundSetupSeconds);
    ++rounds;
  } while (rounds < kMinRounds ||
           elapsed.elapsed_s() * static_cast<double>(rounds + 1) / static_cast<double>(rounds) <=
               kMeasureShare * options.seconds);
  derive_for(sweep, studies, 0.0, kMinDeriveSamples);
  return peak_rss_mb();
}

void note_provenance(Outcome& out, const RunOptions& options, std::size_t threads) {
  out.note("workload", options.workload);
  out.note("seed", std::to_string(options.seed));
  out.note("size", options.tiny ? "tiny" : "full");
  out.note("trace", options.trace ? "1" : "0");
  out.note("nproc", std::to_string(nproc()));
  out.note("threads", std::to_string(threads));
  out.note("simd_active", fastz::simd::isa_name(fastz::simd::active_isa()));
  out.note("simd_detected", fastz::simd::isa_name(fastz::simd::detected_isa()));
}

void note_digests(Outcome& out, const fastz::Digest128& alignments, const DeriveSweep& sweep) {
  fastz::DigestBuilder gpusim;
  for (const fastz::FastzRun& run : sweep.runs) digest_run(gpusim, run);
  out.note("digest.alignments", alignments.hex());
  out.note("digest.gpusim", gpusim.finish().hex());
}

// Request latency percentiles taken per round and reported as their
// medians over rounds, like every other timing of a run.
struct RoundLatency {
  Samples p50, p99;
  std::size_t requests = 0;

  void add_round(const Samples& req_ms) {
    p50.add(req_ms.median());
    p99.add(req_ms.percentile(99));
    requests += req_ms.count();
  }
};

void add_end_to_end(Report& r, const Samples& setup_s, double pass_s, const DeriveSweep& sweep,
                    double rps, const RoundLatency& req_ms, double rss_mb) {
  r.add("setup_s", setup_s.median(), "s");
  r.add("pass_s", pass_s, "s");
  r.add("derive_ms.mean", sweep.busy_ms / static_cast<double>(sweep.calls), "ms");
  r.add("derive_ms.p99", sweep.call_ms.percentile(99), "ms");
  r.add("rps", rps, "1/s");
  r.add("req_ms.p50", req_ms.p50.median(), "ms");
  r.add("req_ms.p99", req_ms.p99.median(), "ms");
  r.add("peak_rss_mb", rss_mb, "MB");
}

// Every per-layer metric, in BENCHMARK.json order.
struct LayerInputs {
  double generate_s = 0.0;
  const LayerTotals* layers = nullptr;
  double pass_s = 0.0;         // untraced functional pass
  double traced_pass_s = 0.0;  // the same pass with the repo's telemetry on
  std::size_t threads = 1;
  const DeriveSweep* sweep = nullptr;
  ModeledTotals modeled;
  const ServiceRun* service = nullptr;
};

void add_layers(Report& r, const LayerInputs& in) {
  const LayerTotals& l = *in.layers;
  const double inspect_s = l.inspect_us.sum() * 1e-6;
  const double execute_s = l.execute_ms.sum() * 1e-3;
  const ServiceRun& s = *in.service;
  const auto ratio = [](double x, double y) { return y > 0.0 ? x / y : 0.0; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  r.add("sequence.generate_s", in.generate_s, "s");
  r.add("seed.enumerate_s", l.enumerate_s.sum(), "s");
  r.add("seed.hits", count(l.hits), "count");
  r.add("inspector.busy_s", inspect_s, "s");
  r.add("inspector.cells", count(l.inspector_cells), "count");
  r.add("inspector.gcups", ratio(count(l.inspector_cells) * 1e-9, inspect_s), "GCUPS");
  r.add("inspector.seed_us.p50", l.inspect_us.median(), "us");
  r.add("inspector.seed_us.p99", l.inspect_us.percentile(99), "us");
  r.add("inspector.eager_ratio", ratio(count(l.eager), count(l.hits)), "ratio");
  r.add("executor.busy_s", execute_s, "s");
  r.add("executor.tasks", count(l.executor_tasks), "count");
  r.add("executor.cells", count(l.executor_cells), "count");
  r.add("executor.linear_tasks", count(l.linear_tasks), "count");
  r.add("executor.replay_cells", count(l.replay_cells), "count");
  r.add("executor.task_ms.p50", l.execute_ms.median(), "ms");
  r.add("executor.task_ms.p99", l.execute_ms.percentile(99), "ms");
  r.add("executor.tb_peak_bytes", count(l.tb_peak_bytes), "bytes");
  r.add("pass.serial_s", l.serial_s(), "s");
  r.add("pass.parallel_efficiency",
        ratio(l.serial_s(), in.pass_s * static_cast<double>(in.threads)), "ratio");
  r.add("pass.trace_overhead", ratio(in.traced_pass_s, in.pass_s), "ratio");
  r.add("derive.busy_s", in.sweep->busy_ms * 1e-3, "s");
  r.add("derive.calls", count(in.sweep->calls), "count");
  r.add("gpusim.modeled_total_s.pascal", in.modeled.total_s_pascal, "s");
  r.add("gpusim.modeled_total_s.volta", in.modeled.total_s_volta, "s");
  r.add("gpusim.modeled_total_s.ampere", in.modeled.total_s_ampere, "s");
  r.add("gpusim.modeled_inspector_s", in.modeled.inspector_s, "s");
  r.add("gpusim.modeled_executor_s", in.modeled.executor_s, "s");
  r.add("gpusim.launches", count(in.modeled.launches), "count");
  r.add("gpusim.executor_tasks", count(in.modeled.executor_tasks), "count");
  r.add("gpusim.eager_handled", count(in.modeled.eager_handled), "count");
  r.add("service.hit_ms.p50", s.hit_ms.median(), "ms");
  r.add("service.hit_ms.p99", s.hit_ms.percentile(99), "ms");
  r.add("service.miss_ms.p50", s.miss_ms.median(), "ms");
  r.add("service.miss_ms.p99", s.miss_ms.percentile(99), "ms");
  const double timed = count(s.req_ms.count());
  r.add("service.cache_hit_ratio", ratio(count(s.server.cache_hits), timed), "ratio");
  // Requests per sealed batch (cache hits included): what micro-batching
  // coalesces per dispatch.
  r.add("service.items_per_batch", ratio(timed, count(s.server.batches)), "items");
  r.add("service.coalesced", count(s.server.coalesced), "count");
  r.add("service.cache_evictions", count(s.cache.evictions), "count");
  r.add("service.max_queue_depth", count(s.server.max_queue_depth), "count");
  r.add("service.shed", count(s.shed), "count");
  r.add("service.error_rate", ratio(count(s.failed()), count(s.attempted)), "ratio");
}

void check_service(Outcome& out, const ServiceRun& run, const std::string& what) {
  out.check(run.divergences == 0 && run.errors == 0 && run.completed + run.shed == run.attempted,
            what + "_replies_match_direct_study");
}

// Direct FastzStudy of every corpus query against the target, one thread
// each (as a service shard runs them). Returns the summed pass time.
double oracle_pass(const ServiceCorpus& corpus, std::vector<FastzStudy>& oracle) {
  fastz::PipelineOptions options = corpus.options;
  options.threads = 1;
  oracle.clear();
  oracle.reserve(corpus.queries.size());
  double pass_s = 0.0;
  for (const fastz::Sequence& query : corpus.queries) {
    Timer timer;
    oracle.emplace_back(corpus.target, query, corpus.params, options);
    pass_s += timer.elapsed_s();
  }
  return pass_s;
}

std::vector<const FastzStudy*> study_ptrs(const std::vector<FastzStudy>& studies) {
  std::vector<const FastzStudy*> ptrs;
  for (const FastzStudy& s : studies) ptrs.push_back(&s);
  return ptrs;
}

std::vector<const FastzStudy*> study_ptrs(const std::vector<PreparedPair>& pairs) {
  std::vector<const FastzStudy*> ptrs;
  for (const PreparedPair& p : pairs) ptrs.push_back(p.study.get());
  return ptrs;
}

// ---------------------------------------------------------------------------
// Batch workloads: one caller runs the functional pass of each pair on
// nproc threads (each pair is one request), then a derive sweep.

struct BatchSpec {
  std::function<std::vector<PreparedPair>()> generate;
  fastz::ScoreParams params;
  fastz::PipelineOptions options;
  bool whole_study_derive_samples = false;  // see DeriveSweep
  // Untimed output checks on the first round's studies.
  std::function<void(const std::vector<PreparedPair>&, const DeriveSweep&, Outcome&)> check;
};

// One functional pass over every pair: adds each pair's latency to
// `pair_ms` and the round's total to `round_s`, and returns the digest of
// the alignments. `keep` stores the studies in `pairs`.
fastz::Digest128 pass_round(const BatchSpec& spec, std::vector<PreparedPair>& pairs, bool keep,
                            Samples& pair_ms, Samples& round_s) {
  fastz::DigestBuilder digest;
  double total = 0.0;
  for (PreparedPair& pair : pairs) {
    Timer timer;
    auto study =
        std::make_unique<FastzStudy>(pair.data.a, pair.data.b, spec.params, spec.options);
    const double s = timer.elapsed_s();
    total += s;
    pair_ms.add(s * 1e3);
    digest_alignments(digest, study->alignments());
    if (keep) pair.study = std::move(study);
  }
  round_s.add(total);
  return digest.finish();
}

Outcome run_batch(const BatchSpec& spec, const RunOptions& options) {
  Outcome out;
  const std::size_t threads = spec.options.threads;
  note_provenance(out, options, threads);
  Samples setup_s;
  std::vector<PreparedPair> pairs = timed_setup(spec.generate, setup_s);

  if (!options.trace) {
    Samples round_s;
    RoundLatency req_ms;
    fastz::Digest128 first;
    bool rounds_agree = true;
    std::vector<const FastzStudy*> studies;
    DeriveSweep sweep(spec.whole_study_derive_samples);
    const auto step = [&](std::size_t round) {
      Samples pair_ms;
      const fastz::Digest128 digest = pass_round(spec, pairs, round == 0, pair_ms, round_s);
      req_ms.add_round(pair_ms);
      if (round == 0) {
        first = digest;
        studies = study_ptrs(pairs);
      }
      rounds_agree = rounds_agree && digest == first;
    };
    const double rss_mb = measure_rounds(options, step, spec.generate, studies, setup_s, sweep);

    out.check(rounds_agree, "pass_rounds_bit_identical");
    out.check(sweep.deterministic, "derive_repeats_bit_identical");
    spec.check(pairs, sweep, out);
    note_digests(out, first, sweep);
    out.note("samples.pass_rounds", std::to_string(round_s.count()));
    out.note("pass_round_s", joined(round_s));
    out.note("samples.req", std::to_string(req_ms.requests));
    out.note("samples.derive", std::to_string(sweep.call_ms.count()));
    out.note("derive_calls", std::to_string(sweep.calls));
    const double pass_median = round_s.median();
    add_end_to_end(out.report, setup_s, pass_median, sweep,
                   static_cast<double>(pairs.size()) / pass_median, req_ms, rss_mb);
    out.attempted = req_ms.requests + sweep.calls;
    return out;
  }

  // Traced run: untraced pass, the same pass with telemetry on, a serial
  // replay through the per-layer entry points, one derive call per slot, and a
  // short service probe on windows of the first pair.
  Samples pair_ms, pass_s, traced_pass_s;
  const fastz::Digest128 first = pass_round(spec, pairs, true, pair_ms, pass_s);
  {
    const fastz::telemetry::ScopedEnable traced(true);
    out.check(pass_round(spec, pairs, false, pair_ms, traced_pass_s) == first,
              "traced_pass_bit_identical");
  }
  LayerTotals layers;
  bool replay_matches = true;
  for (const PreparedPair& pair : pairs) {
    const auto replayed =
        replay_pair(pair.data.a, pair.data.b, spec.params, spec.options, layers);
    replay_matches = replay_matches && same_alignments(replayed, pair.study->alignments());
  }
  out.check(replay_matches, "serial_replay_matches_pass");
  DeriveSweep sweep(spec.whole_study_derive_samples);
  derive_for(sweep, study_ptrs(pairs), 0.0);
  spec.check(pairs, sweep, out);
  note_digests(out, first, sweep);

  fastz::PipelineOptions probe_options = spec.options;
  probe_options.threads = 1;
  const std::size_t entries = options.tiny ? 8 : 64;
  const ServiceCorpus corpus =
      make_corpus(pairs.front().data, options.tiny ? 4000 : 12000,
                  options.tiny ? 1000 : 2500, entries, 1.1, options.seed, spec.params,
                  probe_options);
  std::vector<FastzStudy> oracle;
  oracle_pass(corpus, oracle);
  const ServiceRun probe =
      run_closed_loop(corpus, oracle, kServiceClients, 0, entries * 8, options.seed);
  check_service(out, probe, "service_probe");

  LayerInputs in;
  in.generate_s = setup_s.median();  // a batch workload's setup is synthesis
  in.layers = &layers;
  in.pass_s = pass_s.sum();
  in.traced_pass_s = traced_pass_s.sum();
  in.threads = threads;
  in.sweep = &sweep;
  in.modeled = modeled_totals(sweep, pairs.size());
  in.service = &probe;
  add_layers(out.report, in);
  out.attempted = layers.hits + probe.attempted;
  out.failed = probe.failed();
  return out;
}

fastz::ScoreParams params_with_ydrop(fastz::Score ydrop) {
  fastz::ScoreParams params = fastz::lastz_default_params();
  params.ydrop = ydrop;
  return params;
}

// bench_fig8_breakdown's settings: the figure harness's command-line
// defaults.
fastz::HarnessOptions figure_harness() {
  fastz::CliParser cli("figure harness defaults");
  fastz::add_harness_flags(cli);
  const char* const argv[] = {"fastz_perfbench"};
  cli.parse(1, argv);
  return fastz::harness_options_from(cli);
}

// The three same-genus pairs spanning Table 2's census, at the figure
// harness's defaults (scale 0.03, <= 12000 seeds, y-drop 2000). The
// chromosomes are the harness's; the workload seed offsets the harness's
// sample seed, which picks the anchor set (the seed hits FastZ extends), so
// seed 0 is the harness's own sample.
Outcome genome_pair(const RunOptions& options) {
  fastz::HarnessOptions harness = figure_harness();
  if (options.tiny) {
    harness.scale = 0.002;
    harness.max_seeds = 200;
  }
  harness.sample_seed += options.seed;
  harness.threads = nproc();
  harness.verbose = false;
  const std::vector<std::string> labels = {"C1_5,5", "A1_X,X", "D1_2R,2"};

  BatchSpec spec;
  spec.params = fastz::harness_score_params(harness);
  spec.options.max_seeds = harness.max_seeds;
  spec.options.sample_seed = harness.sample_seed;
  spec.options.threads = harness.threads;
  spec.generate = [labels, scale = harness.scale] {
    std::vector<PreparedPair> pairs;
    for (const std::string& label : labels) {
      PreparedPair p;
      p.spec = fastz::find_pair(label, scale);
      p.data = fastz::generate_pair(p.spec.model, p.spec.generator_seed, p.spec.species_a,
                                    p.spec.species_b);
      pairs.push_back(std::move(p));
    }
    return pairs;
  };
  const fastz::PipelineOptions pass_options = spec.options;
  const fastz::ScoreParams params = spec.params;
  spec.check = [pass_options, params, harness, labels](const std::vector<PreparedPair>& pairs,
                                                       const DeriveSweep& sweep, Outcome& out) {
    // Spot-check ~1.5% of seeds against an independent serial replay.
    std::size_t checked = 0, mismatches = 0;
    for (const PreparedPair& pair : pairs) {
      checked += spot_check(pair.data.a, pair.data.b, params, pass_options, *pair.study, 64,
                            mismatches);
    }
    out.note("spot_checked_seeds", std::to_string(checked));
    out.check(mismatches == 0 && checked > 0, "spot_replay_matches_pass");
    // The sweep's Ampere totals must be what bench_fig8_breakdown reports
    // with --sample-seed <harness.sample_seed>: an independent run of the
    // harness's own preparation and report.
    std::vector<fastz::BenchmarkPair> specs;
    for (const fastz::BenchmarkPair& spec : fastz::same_genus_pairs(harness.scale)) {
      if (std::find(labels.begin(), labels.end(), spec.label) != labels.end()) {
        specs.push_back(spec);
      }
    }
    const std::vector<PreparedPair> reference =
        fastz::prepare_pairs(specs, fastz::harness_score_params(harness), harness);
    const fastz::telemetry::BenchReport fig8 = fastz::breakdown_report(
        reference, fastz::FastzConfig::full(), fastz::default_devices().ampere);
    std::map<std::string, double> reported(fig8.metrics().begin(), fig8.metrics().end());
    const ModeledTotals modeled = modeled_totals(sweep, pairs.size());
    bool fig8_equal = true;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const double total = modeled.ampere_total_per_study.at(i);
      out.note("ampere_total_s." + pairs[i].spec.label, num(total));
      fig8_equal = fig8_equal && reported.at(pairs[i].spec.label + ".total_s") == total;
    }
    out.note("fig8_sample_seed", std::to_string(harness.sample_seed));
    out.check(fig8_equal, "ampere_totals_match_fig8");
  };
  return run_batch(spec, options);
}

// The 10x long-tail preset at scale 0.3: every executor task takes the
// Hirschberg linear path. The output must equal a dense-traceback run.
Outcome longtail(const RunOptions& options) {
  BatchSpec spec;
  spec.params = params_with_ydrop(1200);  // as bench_longtail
  // Search caps lifted as in bench_longtail, so every anchor extends to both
  // ends of the homology segment. A side too short for the linear path runs
  // dense, so a task costs up to 2x another depending on where its anchor
  // splits the segment; 32 such tasks on 4 threads leave the pool waiting
  // on stragglers.
  spec.options.max_seeds = options.tiny ? 6 : 32;
  spec.options.one_sided.max_rows = 4'000'000;
  spec.options.one_sided.max_cols = 4'000'000;
  spec.options.sample_seed = kSampleSeed + options.seed;
  spec.options.threads = nproc();
  spec.whole_study_derive_samples = true;
  const double scale = options.tiny ? 0.02 : 0.3;
  // The tiny preset's rectangles fall below the default linear-path area;
  // lower it so tiny runs take the same path.
  if (options.tiny) spec.options.one_sided.hirschberg_area = std::uint64_t{1} << 20;
  spec.generate = [scale] {
    const fastz::LongTailPreset preset = fastz::longtail_presets(scale).front();
    PreparedPair p;
    p.spec.label = "longtail_" + preset.label;
    p.data = fastz::longtail_pair(preset, 7);  // bench_longtail's default
    std::vector<PreparedPair> pairs;
    pairs.push_back(std::move(p));
    return pairs;
  };
  const fastz::PipelineOptions pass_options = spec.options;
  const fastz::ScoreParams params = spec.params;
  spec.check = [pass_options, params](const std::vector<PreparedPair>& pairs, const DeriveSweep&,
                                      Outcome& out) {
    fastz::PipelineOptions dense = pass_options;
    dense.one_sided.hirschberg_area = 0;  // disables the linear path
    bool equal = true;
    std::uint64_t linear = 0, tasks = 0;
    for (const PreparedPair& pair : pairs) {
      const FastzStudy reference(pair.data.a, pair.data.b, params, dense);
      equal = equal && same_alignments(reference.alignments(), pair.study->alignments());
      for (const fastz::SeedWork& work : pair.study->seed_work()) {
        tasks += work.inspection.eager ? 0 : 1;
        linear += work.hirschberg ? 1 : 0;
      }
    }
    out.note("linear_tasks", std::to_string(linear) + "/" + std::to_string(tasks));
    out.check(equal, "linear_matches_dense_traceback");
    out.check(linear > 0, "linear_path_exercised");
  };
  return run_batch(spec, options);
}

// ---------------------------------------------------------------------------
// service_zipf: 4 closed-loop clients against AlignmentServer (2 shards x 1
// pass thread, default batching, cache on); one 12 kbp target window of
// C1_5,5's chromosome A (at its longest homology segment), 1024 distinct
// 2.5 kbp query windows of chromosome B requested with Zipf(1.1) ranks.
// The workload seed places the windows and drives the clients' request
// streams. BENCHMARK.json does not list it: see README.md.

struct ServiceInputs {
  fastz::SyntheticPair data;
  ServiceCorpus corpus;
};

Outcome service_zipf(const RunOptions& options) {
  Outcome out;
  note_provenance(out, options, 1);
  const double scale = options.tiny ? 0.002 : 0.03;
  const std::size_t entries = options.tiny ? 32 : 1024;
  const std::size_t requests = options.tiny ? 200 : 8000;
  const std::size_t warmup = options.tiny ? 50 : kServiceWarmup;
  fastz::PipelineOptions pipeline;
  pipeline.max_seeds = 12000;
  pipeline.sample_seed = kSampleSeed;
  pipeline.threads = 1;
  const fastz::ScoreParams params = params_with_ydrop(2000);

  Samples generate_s;
  const auto generate = [&] {
    const fastz::BenchmarkPair spec = fastz::find_pair("C1_5,5", scale);
    Timer timer;
    fastz::SyntheticPair data =
        fastz::generate_pair(spec.model, spec.generator_seed, spec.species_a, spec.species_b);
    generate_s.add(timer.elapsed_s());
    return data;
  };
  const auto make_inputs = [&] {
    ServiceInputs in;
    in.data = generate();
    in.corpus = make_corpus(in.data, options.tiny ? 4000 : 12000,
                            options.tiny ? 1000 : 2500, entries, 1.1, options.seed, params,
                            pipeline);
    return in;
  };
  Samples setup_s;
  const ServiceInputs inputs = timed_setup(make_inputs, setup_s);
  const ServiceCorpus& corpus = inputs.corpus;

  std::vector<FastzStudy> oracle;
  Samples pass_s;
  pass_s.add(oracle_pass(corpus, oracle));
  fastz::DigestBuilder alignments;
  for (const FastzStudy& s : oracle) digest_alignments(alignments, s.alignments());
  const fastz::Digest128 alignments_digest = alignments.finish();
  std::size_t aligned = 0, most_seeds = 0;
  for (const FastzStudy& s : oracle) {
    aligned += s.alignments().empty() ? 0 : 1;
    most_seeds = std::max<std::size_t>(most_seeds, s.seeds());
  }
  out.note("corpus.pairs_with_alignments", std::to_string(aligned));
  out.note("corpus.most_seeds", std::to_string(most_seeds));

  if (!options.trace) {
    // Each round: a fresh server serving `warmup` + `requests` requests;
    // every kServicePassEvery-th round first runs the oracle pass again
    // (pass_s, checked against the first). Short rounds give the
    // latency medians many rounds to span.
    Samples rep_rps;
    RoundLatency req_ms;
    std::uint64_t attempted = 0, failed = 0;
    bool replies_ok = true, passes_agree = true;
    const std::vector<const FastzStudy*> studies = study_ptrs(oracle);
    DeriveSweep sweep(/*whole_study_samples=*/true);
    const auto step = [&](std::size_t round) {
      if (round > 0 && round % kServicePassEvery == 0) {
        std::vector<FastzStudy> again;
        pass_s.add(oracle_pass(corpus, again));
        fastz::DigestBuilder digest;
        for (const FastzStudy& s : again) digest_alignments(digest, s.alignments());
        passes_agree = passes_agree && digest.finish() == alignments_digest;
      }
      const ServiceRun run =
          run_closed_loop(corpus, oracle, kServiceClients, warmup, requests,
                          options.seed * 1000 + round);
      rep_rps.add(run.rps());
      req_ms.add_round(run.req_ms);
      attempted += run.attempted;
      failed += run.failed();
      replies_ok = replies_ok && run.divergences == 0 && run.errors == 0;
    };
    const double rss_mb = measure_rounds(options, step, make_inputs, studies, setup_s, sweep);

    out.check(passes_agree, "pass_rounds_bit_identical");
    out.check(sweep.deterministic, "derive_repeats_bit_identical");
    out.check(replies_ok, "replies_match_direct_study");
    note_digests(out, alignments_digest, sweep);
    out.note("samples.rounds", std::to_string(rep_rps.count()));
    out.note("pass_round_s", joined(pass_s));
    out.note("round_rps", joined(rep_rps));
    out.note("round_req_ms.p99", joined(req_ms.p99));
    out.note("samples.req", std::to_string(req_ms.requests));
    out.note("samples.derive", std::to_string(sweep.call_ms.count()));
    out.note("derive_calls", std::to_string(sweep.calls));
    add_end_to_end(out.report, setup_s, pass_s.median(), sweep, rep_rps.median(), req_ms,
                   rss_mb);
    out.attempted = attempted;
    out.failed = failed;
    return out;
  }

  double traced_pass_s = 0.0;
  {
    const fastz::telemetry::ScopedEnable traced(true);
    std::vector<FastzStudy> traced_oracle;
    traced_pass_s = oracle_pass(corpus, traced_oracle);
    bool same = true;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      same = same && same_alignments(oracle[i].alignments(), traced_oracle[i].alignments());
    }
    out.check(same, "traced_pass_bit_identical");
  }
  LayerTotals layers;
  bool replay_matches = true;
  for (std::size_t i = 0; i < corpus.queries.size(); ++i) {
    const auto replayed =
        replay_pair(corpus.target, corpus.queries[i], corpus.params, pipeline, layers);
    replay_matches = replay_matches && same_alignments(replayed, oracle[i].alignments());
  }
  out.check(replay_matches, "serial_replay_matches_pass");
  DeriveSweep sweep(/*whole_study_samples=*/true);
  derive_for(sweep, study_ptrs(oracle), 0.0);
  const ServiceRun run =
      run_closed_loop(corpus, oracle, kServiceClients, warmup, requests, options.seed * 1000);
  check_service(out, run, "service");
  note_digests(out, alignments_digest, sweep);

  LayerInputs in;
  in.generate_s = generate_s.median();
  in.layers = &layers;
  in.pass_s = pass_s.median();
  in.traced_pass_s = traced_pass_s;
  in.threads = 1;
  in.sweep = &sweep;
  in.modeled = modeled_totals(sweep, oracle.size());
  in.service = &run;
  add_layers(out.report, in);
  out.attempted = run.attempted;
  out.failed = run.failed();
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"genome_pair", "longtail", "service_zipf"};
  return names;
}

Outcome run_workload(const RunOptions& options) {
  if (options.workload == "genome_pair") return genome_pair(options);
  if (options.workload == "longtail") return longtail(options);
  if (options.workload == "service_zipf") return service_zipf(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
