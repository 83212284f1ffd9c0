// fastz_fuzz — property-based differential fuzzer for the FastZ pipeline.
//
//   fastz_fuzz --cases 1000                    # fuzz 1000 seeded cases
//   fastz_fuzz --replay seed=123               # reproduce + shrink one case
//   fastz_fuzz --inject-bug gap-extend --expect-divergence 1   # self-test
//
// Exit code 0 when no divergence is found (or one was found and
// --expect-divergence is set); 1 otherwise. Every failure report leads with
// the copy-pasteable replay command.
#include <algorithm>
#include <iostream>

#include "testing/fuzz.hpp"
#include "util/cli.hpp"

namespace {

void print_summary(const fastz::testing::FuzzSummary& summary) {
  std::cout << "fastz_fuzz: " << summary.cases_run << " cases, " << summary.checks
            << " checks, " << summary.failures.size() << " divergence(s) in "
            << summary.elapsed_s << " s";
  if (summary.budget_exhausted) std::cout << " (time budget reached)";
  std::cout << "\n  by kind:";
  for (std::size_t k = 0; k < fastz::testing::kCaseKindCount; ++k) {
    if (summary.by_kind[k] == 0) continue;
    std::cout << " "
              << fastz::testing::case_kind_name(static_cast<fastz::testing::CaseKind>(k))
              << "=" << summary.by_kind[k];
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using fastz::testing::FuzzOptions;
  using fastz::testing::FuzzSummary;

  fastz::CliParser cli(
      "Differential fuzzer: FastZ pipeline vs y-drop DP vs Gotoh reference vs "
      "multicore baseline. Failures print a '--replay seed=N' repro and a "
      "greedily minimized input pair.");
  cli.add_flag("cases", "number of generated cases", "1000");
  cli.add_flag("seed", "first case seed (cases use seed, seed+1, ...)", "1");
  cli.add_flag("budget-s", "wall-clock budget in seconds, 0 = unlimited", "0");
  cli.add_flag("replay", "replay one case: 'seed=N' (skips generation loop)", "");
  cli.add_flag("kind",
               "force every case to one corpus kind (e.g. long-related, "
               "long-structural-indel); empty = weighted mix",
               "");
  cli.add_flag("inject-bug",
               "deliberately break one implementation "
               "(none|gap-extend|drop-op|score-off-by-one|"
               "hirschberg-split-off-by-one)",
               "none");
  cli.add_flag("expect-divergence",
               "exit 0 only if a divergence IS found (harness self-test)", "0");
  cli.add_flag("minimize", "shrink the first failing case", "1");
  cli.add_flag("threads",
               "functional-pass worker threads for pipeline cases (0 = "
               "FASTZ_THREADS env, then hardware concurrency; 1 = serial)",
               "0");

  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  try {
    FuzzOptions options;
    options.cases = static_cast<std::uint64_t>(cli.get_int("cases"));
    options.first_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.budget_s = cli.get_double("budget-s");
    options.bug = fastz::testing::parse_bug(cli.get("inject-bug"));
    const std::string kind = cli.get("kind");
    if (!kind.empty()) options.kind = fastz::testing::parse_case_kind(kind);
    options.minimize = cli.get_bool("minimize");
    options.threads = static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("threads")));
    options.log = &std::cout;
    const bool expect_divergence = cli.get_bool("expect-divergence");

    FuzzSummary summary;
    const std::string replay = cli.get("replay");
    if (!replay.empty()) {
      const std::uint64_t seed = fastz::testing::parse_replay(replay);
      std::cout << "replaying seed " << seed << "\n";
      summary = replay_seed(seed, options);
    } else {
      if (options.bug != fastz::testing::InjectedBug::kNone) {
        std::cout << "injecting bug: " << fastz::testing::bug_name(options.bug) << "\n";
      }
      summary = run_fuzz(options);
    }
    print_summary(summary);

    if (expect_divergence) {
      if (summary.ok()) {
        std::cerr << "fastz_fuzz: expected a divergence but every check passed\n";
        return 1;
      }
      std::cout << "fastz_fuzz: divergence found and reported as expected\n";
      return 0;
    }
    return summary.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fastz_fuzz: " << e.what() << "\n";
    return 2;
  }
}
