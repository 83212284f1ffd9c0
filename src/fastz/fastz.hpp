// Umbrella header: the FastZ library's public API in one include.
//
//   #include "fastz/fastz.hpp"
//
//   fastz::ScoreParams params = fastz::lastz_default_params();
//   fastz::FastzStudy study(target, query, params);       // run the pipeline
//   for (const fastz::Alignment& aln : study.alignments()) { ... }
//   fastz::FastzRun run = study.derive(fastz::FastzConfig::full(),
//                                      fastz::gpusim::rtx3080_ampere());
//
// Layering (see DESIGN.md for the full inventory):
//   score/     scoring model (HOXD70, affine gaps, y-drop)
//   sequence/  DNA containers, FASTA I/O, synthetic workloads
//   seed/      spaced seeds, seed index, ungapped filter, chaining
//   align/     DP engines, extension, sequential LASTZ pipeline, output
//   gpusim/    virtual GPU devices, kernel scheduling, occupancy
//   fastz/     the FastZ pipeline itself (inspector/executor/bins/config)
#pragma once

#include "align/alignment.hpp"
#include "align/extension.hpp"
#include "align/gotoh_reference.hpp"
#include "align/lastz_pipeline.hpp"
#include "align/output.hpp"
#include "align/strand_search.hpp"
#include "align/ydrop_align.hpp"
#include "fastz/binning.hpp"
#include "fastz/config.hpp"
#include "fastz/executor.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "fastz/inspector.hpp"
#include "fastz/strip_kernel.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_sim.hpp"
#include "gpusim/occupancy.hpp"
#include "score/score_params.hpp"
#include "seed/chaining.hpp"
#include "seed/seed_index.hpp"
#include "seed/spaced_seed.hpp"
#include "seed/ungapped_filter.hpp"
#include "sequence/benchmark_pairs.hpp"
#include "sequence/fasta.hpp"
#include "sequence/genome_synth.hpp"
#include "sequence/sequence.hpp"
