// Control-divergence census (Section 3.4 / Section 6).
//
// Paper: "the control divergence is limited to only a few paths each with
// only a few instructions"; Section 6 derates peak compute by 2.56x because
// the 9 recurrence operations expand to 23 under SIMD divergence. This
// bench measures the *realized* divergence in the functional warp-strip
// kernel: per anti-diagonal step, how many distinct max-operator outcome
// combinations the warp's lanes take (each distinct combination is one
// serialized SIMT pass).
#include <iostream>

#include "fastz/strip_kernel.hpp"
#include "sequence/genome_synth.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli("Realized SIMT control divergence of the warp-strip DP "
                "kernel, vs the paper's 2.56x derate.");
  cli.add_flag("length", "sequence length per test case", "1500");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const auto length = static_cast<std::size_t>(cli.get_int("length"));

  struct Case {
    const char* name;
    double identity;
  };
  const Case cases[] = {
      {"high-identity homology (0.90)", 0.90},
      {"diverged homology (0.70)", 0.70},
      {"marginal homology (0.60)", 0.60},
      {"unrelated DNA (0.25)", 0.25},
  };

  std::cout << "=== SIMT control divergence in the warp-strip kernel ===\n";
  TextTable t({"Workload", "Steps", "1 path", "2 paths", "3-4", "5+",
               "Mean paths/step"});
  const ScoreParams params = lastz_default_params();
  for (const Case& c : cases) {
    Xoshiro256 rng(1234);
    Sequence a = random_sequence("a", length, rng);
    std::vector<BaseCode> b_codes;
    if (c.identity > 0.3) {
      MutationChannel channel;
      b_codes = mutate_segment(a.codes(), c.identity, channel, rng);
    } else {
      const Sequence b_random = random_sequence("b", length, rng);
      b_codes.assign(b_random.codes().begin(), b_random.codes().end());
    }
    const Sequence b("b", std::move(b_codes));
    const auto r = strip_rectangle_dp(SeqView(a.codes().data(), 1, a.size()),
                                      SeqView(b.codes().data(), 1, b.size()), params,
                                      /*want_traceback=*/false);
    std::uint64_t steps = 0;
    for (auto v : r.divergence_histogram) steps += v;
    const auto& h = r.divergence_histogram;
    auto pct = [&](std::uint64_t v) {
      return TextTable::num(100.0 * static_cast<double>(v) /
                                static_cast<double>(steps), 1) + "%";
    };
    t.add_row({c.name, TextTable::num(steps), pct(h[0]), pct(h[1]),
               pct(h[2] + h[3]), pct(h[4] + h[5] + h[6] + h[7] + h[8] + h[9] + h[10] + h[11]),
               TextTable::num(r.mean_divergent_paths(), 2)});
  }
  t.render(std::cout);

  std::cout << "\nPaper's claim to check: divergence stays within a few paths "
               "(Section 3.4); Section 6's instruction-expansion derate is "
               "23/9 = 2.56, which bounds the serialization a step suffers.\n";
  return 0;
}
