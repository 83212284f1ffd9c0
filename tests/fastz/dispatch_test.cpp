// The dispatcher: derive() packs a study's tasks into a few LPT-balanced
// launches and schedules them with KernelSimulator::run_pipeline. Its
// modeled schedule must not depend on the functional pass's thread count
// or on whether a profiler is installed, and its launch structure is pinned
// at harness scale.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fastz/fastz_pipeline.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/profiler.hpp"
#include "report/experiment.hpp"
#include "testing/corpus.hpp"

namespace fastz {
namespace {

using testing::CaseKind;
using testing::make_case_of_kind;

TEST(Dispatch, ThreadCountDoesNotChangeModeledCosts) {
  auto c = make_case_of_kind(57, CaseKind::kPipeline);
  const gpusim::DeviceSpec device = gpusim::rtx3080_ampere();
  c.pipeline.threads = 1;
  const FastzStudy serial(c.a, c.b, c.params, c.pipeline);
  const FastzRun run1 = serial.derive(FastzConfig::full(), device);
  for (const std::size_t threads : {2, 5}) {
    c.pipeline.threads = threads;
    const FastzStudy parallel(c.a, c.b, c.params, c.pipeline);
    const FastzRun runN = parallel.derive(FastzConfig::full(), device);
    const std::string label = "threads=" + std::to_string(threads);
    // Bit-equal modeled times: the derive consumes seed-index-ordered
    // metrics, so the worker count of the functional pass cannot leak into
    // the schedule.
    EXPECT_EQ(run1.modeled.inspector_s, runN.modeled.inspector_s) << label;
    EXPECT_EQ(run1.modeled.executor_s, runN.modeled.executor_s) << label;
    EXPECT_EQ(run1.modeled.other_s, runN.modeled.other_s) << label;
    EXPECT_EQ(run1.executor_kernels, runN.executor_kernels) << label;
    EXPECT_EQ(run1.inspector_launches, runN.inspector_launches) << label;
  }
}

// Chromosome-scale assertions share one prepared harness pair: the fig7
// smoke workload (bench-smoke's --scale 0.012 --max-seeds 4000, first
// same-genus pair, ~4k seeds).
class DispatchAtScale : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    HarnessOptions options;
    options.scale = 0.012;
    options.max_seeds = 4000;
    options.verbose = false;
    auto pairs = same_genus_pairs(options.scale);
    pairs.resize(1);
    prepared_ = new std::vector<PreparedPair>(
        prepare_pairs(pairs, harness_score_params(options), options));
    ASSERT_GT((*prepared_)[0].study->seeds(), 1000u);
  }
  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
  }
  static const FastzStudy& study() { return *(*prepared_)[0].study; }

  static std::vector<PreparedPair>* prepared_;
};

std::vector<PreparedPair>* DispatchAtScale::prepared_ = nullptr;

TEST_F(DispatchAtScale, BatchedCollapsesLaunchCount) {
  // Launch-structure pin: two inspector launches, and per inspector chunk
  // at most one dense and one Hirschberg executor launch (nothing splits
  // on a 10 GB budget at this scale) — independent of the ~4k seeds.
  const FastzRun run = study().derive(FastzConfig::full(), default_devices().ampere);
  EXPECT_EQ(run.inspector_launches, 2u);
  EXPECT_GE(run.executor_kernels, 1u);
  EXPECT_LE(run.executor_kernels, run.inspector_launches * 2);
}

TEST_F(DispatchAtScale, ProfiledBatchedRunModelsIdenticalCosts) {
  const gpusim::DeviceSpec device = default_devices().ampere;
  const FastzRun plain = study().derive(FastzConfig::full(), device);
  gpusim::ProfilerSession session;
  FastzRun profiled;
  {
    const gpusim::ScopedProfiler scoped(session);
    profiled = study().derive(FastzConfig::full(), device);
  }
  EXPECT_EQ(session.kernel_count(), plain.inspector_launches + plain.executor_kernels);
  EXPECT_DOUBLE_EQ(profiled.modeled.inspector_s, plain.modeled.inspector_s);
  EXPECT_DOUBLE_EQ(profiled.modeled.executor_s, plain.modeled.executor_s);
  EXPECT_DOUBLE_EQ(profiled.modeled.total_s(), plain.modeled.total_s());
}

}  // namespace
}  // namespace fastz
