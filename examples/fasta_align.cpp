// fasta_align: a drop-in command-line aligner over FASTA files.
//
// The "downstream user" entry point: point it at two FASTA files (target
// and query), get gapped alignments on stdout. With no arguments it writes
// a demo pair to /tmp and aligns that, so the example is runnable anywhere.
//
//   fasta_align --target a.fa --query b.fa [--ydrop 9400] [--min-score 3000]
//               [--format tab|maf]
#include <iostream>

#include "align/output.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "gpusim/device_spec.hpp"
#include "sequence/fasta.hpp"
#include "sequence/genome_synth.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

namespace {

void write_demo_files(const std::string& target_path, const std::string& query_path) {
  PairModel model;
  model.length_a = 40000;
  model.segments = {{80.0, 300, 900, 0.9}};
  const SyntheticPair pair = generate_pair(model, 7, "demo_target", "demo_query");
  write_fasta_file(target_path, {pair.a});
  write_fasta_file(query_path, {pair.b});
  std::cerr << "[fasta_align] wrote demo inputs " << target_path << " and "
            << query_path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Gapped whole-genome alignment of two FASTA files with FastZ.");
  cli.add_flag("target", "target FASTA (A); empty = generate a demo pair", "");
  cli.add_flag("query", "query FASTA (B); empty = generate a demo pair", "");
  cli.add_flag("ydrop", "gapped-extension y-drop (LASTZ default 9400)", "3000");
  cli.add_flag("min-score", "minimum reported alignment score (LASTZ default 3000)",
               "3000");
  cli.add_flag("max-seeds", "cap on seed sites (0 = all)", "0");
  cli.add_flag("format", "output format: tab (PAF-like) or maf", "tab");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;

  std::string target_path = cli.get("target");
  std::string query_path = cli.get("query");
  if (target_path.empty() || query_path.empty()) {
    target_path = "/tmp/fastz_demo_target.fa";
    query_path = "/tmp/fastz_demo_query.fa";
    write_demo_files(target_path, query_path);
  }

  const std::vector<Sequence> targets = read_fasta_file(target_path);
  const std::vector<Sequence> queries = read_fasta_file(query_path);
  if (targets.empty() || queries.empty()) {
    std::cerr << "error: empty FASTA input\n";
    return 2;
  }

  ScoreParams params = lastz_default_params();
  params.ydrop = static_cast<Score>(cli.get_int("ydrop"));
  params.gapped_threshold = static_cast<Score>(cli.get_int("min-score"));

  PipelineOptions popts;
  popts.max_seeds = static_cast<std::size_t>(cli.get_int("max-seeds"));

  const std::string format = cli.get("format");
  if (format != "tab" && format != "maf") {
    std::cerr << "error: unknown --format " << format << " (use tab or maf)\n";
    return 2;
  }

  std::size_t total = 0;
  for (const Sequence& target : targets) {
    for (const Sequence& query : queries) {
      const FastzStudy study(target, query, params, popts);
      if (format == "maf") {
        write_maf(std::cout, study.alignments(), target, query);
      } else {
        write_tabular(std::cout, study.alignments(), target, query);
      }
      total += study.alignments().size();
    }
  }
  std::cerr << "[fasta_align] " << total << " alignments reported\n";
  return 0;
}
