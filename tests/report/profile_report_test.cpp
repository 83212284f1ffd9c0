#include "report/profile.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "gpusim/profiler.hpp"
#include "telemetry/json.hpp"

namespace fastz {
namespace {

using gpusim::HwCounters;
using gpusim::KernelProfile;
using gpusim::KernelTag;
using gpusim::ProfilerSession;
using telemetry::JsonValue;

// Builds a session with two hand-written kernel profiles whose summary
// values are exactly predictable.
void fill_session(ProfilerSession& session) {
  KernelProfile inspector;
  inspector.tag.name = "inspector";
  inspector.tag.phase = "inspector";
  inspector.cost.time_s = 1.0;
  inspector.start_s = 0.0;
  inspector.end_s = 1.0;
  inspector.counters.tasks = 10;
  inspector.counters.warp_instructions = 90;
  inspector.counters.issued_warp_cycles = 100;
  inspector.counters.stalled_warp_cycles = 20;
  inspector.counters.achieved_occupancy = 0.8;
  inspector.counters.sm_busy_s = {0.6, 0.4};  // imbalance 1.2
  inspector.counters.traffic.register_elided_bytes = 900;
  inspector.counters.traffic.score_read_bytes = 50;
  inspector.counters.traffic.score_write_bytes = 30;
  inspector.counters.traffic.boundary_spill_bytes = 20;
  session.record(inspector);

  KernelProfile executor;
  executor.tag.name = "executor.batch0";
  executor.tag.phase = "executor";
  executor.tag.stream = 1;
  executor.cost.time_s = 3.0;
  executor.start_s = 1.0;
  executor.end_s = 4.0;
  executor.counters.tasks = 30;
  executor.counters.warp_instructions = 280;
  executor.counters.issued_warp_cycles = 300;
  executor.counters.stalled_warp_cycles = 60;
  executor.counters.achieved_occupancy = 0.5;
  executor.counters.sm_busy_s = {1.0, 3.0};  // imbalance 1.5
  session.record(executor);

  session.note_seeds(100, 70);
}

TEST(ProfileSummary, SpanWeightedAggregation) {
  ProfilerSession session;
  fill_session(session);
  const ProfileSummary s = summarize_profile(session);

  EXPECT_EQ(s.kernels, 2u);
  EXPECT_EQ(s.tasks, 40u);
  EXPECT_DOUBLE_EQ(s.total_time_s, 4.0);
  EXPECT_EQ(s.issued_warp_cycles, 400u);
  EXPECT_EQ(s.stalled_warp_cycles, 80u);
  // Span-weighted means: inspector gets weight 1, executor weight 3.
  EXPECT_NEAR(s.mean_occupancy, (0.8 * 1.0 + 0.5 * 3.0) / 4.0, 1e-12);
  EXPECT_NEAR(s.mean_load_imbalance, (1.2 * 1.0 + 1.5 * 3.0) / 4.0, 1e-12);
  EXPECT_NEAR(s.max_load_imbalance, 1.5, 1e-12);
  EXPECT_EQ(s.seeds, 100u);
  EXPECT_EQ(s.eager_handled, 70u);
  EXPECT_DOUBLE_EQ(s.eager_hit_rate, 0.7);
  // 900 B elided vs 100 B materialized (50 + 30 + 20).
  EXPECT_DOUBLE_EQ(s.score_elision_ratio, 0.9);
  EXPECT_EQ(s.traffic.materialized_score_bytes(), 100u);
}

TEST(ProfileJson, RoundTripsThroughParser) {
  ProfilerSession session;
  fill_session(session);

  std::ostringstream out;
  write_profile_json(out, session, "unit", "test-device");
  const JsonValue doc = JsonValue::parse(out.str());

  EXPECT_EQ(doc.at("schema").as_string(), kProfileSchema);
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  EXPECT_EQ(doc.at("device").as_string(), "test-device");

  const JsonValue& summary = doc.at("summary");
  EXPECT_DOUBLE_EQ(summary.at("kernels").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(summary.at("tasks").as_number(), 40.0);
  EXPECT_DOUBLE_EQ(summary.at("eager_hit_rate").as_number(), 0.7);
  EXPECT_DOUBLE_EQ(summary.at("score_elision_ratio").as_number(), 0.9);
  EXPECT_DOUBLE_EQ(summary.at("traffic").at("register_elided_bytes").as_number(),
                   900.0);
  EXPECT_DOUBLE_EQ(summary.at("traffic").at("materialized_score_bytes").as_number(),
                   100.0);

  const auto& kernels = doc.at("kernels").as_array();
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_EQ(kernels[0].at("name").as_string(), "inspector");
  EXPECT_EQ(kernels[1].at("name").as_string(), "executor.batch0");
  EXPECT_EQ(kernels[1].at("phase").as_string(), "executor");
  EXPECT_DOUBLE_EQ(kernels[1].at("stream").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(kernels[1].at("start_s").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(kernels[1].at("end_s").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(kernels[1].at("load_imbalance").as_number(), 1.5);
  ASSERT_EQ(kernels[1].at("sm_busy_s").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(kernels[1].at("sm_busy_s").as_array()[1].as_number(), 3.0);
}

TEST(ProfileReport, TablePrintsHeadlineSignals) {
  ProfilerSession session;
  fill_session(session);

  std::ostringstream out;
  print_profile(out, session, /*csv=*/false);
  const std::string text = out.str();
  // The kernel label, and the two headline ratios.
  EXPECT_NE(text.find("executor.batch0"), std::string::npos);
  EXPECT_NE(text.find("eager-traceback hit rate"), std::string::npos);
  EXPECT_NE(text.find("score-traffic elision ratio"), std::string::npos);
  EXPECT_NE(text.find("70 of 100 seeds"), std::string::npos);
}

TEST(ProfileTrace, KernelsLandOnVirtualGpuLane) {
  ProfilerSession session;
  fill_session(session);

  const std::vector<telemetry::TraceEvent> events =
      profile_trace_events(session, /*timeline_offset_us=*/10.0);
  ASSERT_EQ(events.size(), 4u);  // per kernel: one 'X' span + one 'C' sample

  const telemetry::TraceEvent& span = events[0];
  EXPECT_EQ(span.phase, 'X');
  EXPECT_EQ(span.pid, 2u);  // the modeled-GPU process lane
  EXPECT_EQ(span.tid, 0u);
  EXPECT_EQ(span.name, "inspector");
  EXPECT_DOUBLE_EQ(span.ts_us, 10.0);
  EXPECT_DOUBLE_EQ(span.dur_us, 1e6);

  const telemetry::TraceEvent& counter = events[1];
  EXPECT_EQ(counter.phase, 'C');
  EXPECT_EQ(counter.pid, 2u);

  const telemetry::TraceEvent& exec = events[2];
  EXPECT_EQ(exec.name, "executor.batch0");
  EXPECT_EQ(exec.tid, 1u);  // stream id is the thread lane
  EXPECT_DOUBLE_EQ(exec.ts_us, 10.0 + 1e6);
}

}  // namespace
}  // namespace fastz
