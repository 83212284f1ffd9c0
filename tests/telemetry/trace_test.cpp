#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace fastz::telemetry {
namespace {

// The recorder and the enabled flag are process-wide; each test starts from
// a clean slate.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    TraceRecorder::global().clear();
  }
  void TearDown() override {
    set_enabled(false);
    TraceRecorder::global().clear();
  }
};

TEST_F(TraceTest, DisabledModeProducesZeroEvents) {
  ASSERT_FALSE(enabled());
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
    EXPECT_FALSE(outer.active());
    EXPECT_FALSE(inner.active());
  }
  EXPECT_EQ(TraceRecorder::global().event_count(), 0u);
}

TEST_F(TraceTest, EnabledSpanRecordsOneEvent) {
  ScopedEnable on;
  { TraceSpan span("work"); }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].category, "fastz");
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST_F(TraceTest, NestedSpansAreContainedInTheirParent) {
  ScopedEnable on;
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
    }
  }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // snapshot() orders by begin timestamp: outer begins first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  const double outer_begin = events[0].ts_us;
  const double outer_end = events[0].ts_us + events[0].dur_us;
  const double inner_begin = events[1].ts_us;
  const double inner_end = events[1].ts_us + events[1].dur_us;
  EXPECT_GE(inner_begin, outer_begin);
  EXPECT_LE(inner_end, outer_end);
  // Same thread, same lane.
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, DynamicNamesAndCategories) {
  ScopedEnable on;
  { TraceSpan span(std::string("bin") + "3", "gpusim"); }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "bin3");
  EXPECT_EQ(events[0].category, "gpusim");
}

TEST_F(TraceTest, ThreadsGetDistinctLanes) {
  ScopedEnable on;
  { TraceSpan span("main-thread"); }
  std::thread worker([] { TraceSpan span("worker-thread"); });
  worker.join();
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, SpanOpenAcrossDisableStillCompletes) {
  set_enabled(true);
  TraceSpan* span = new TraceSpan("crossing");
  set_enabled(false);
  delete span;  // was active when constructed; must still record cleanly
  EXPECT_EQ(TraceRecorder::global().event_count(), 1u);
}

TEST_F(TraceTest, ClearDropsEvents) {
  ScopedEnable on;
  { TraceSpan span("a"); }
  ASSERT_EQ(TraceRecorder::global().event_count(), 1u);
  TraceRecorder::global().clear();
  EXPECT_EQ(TraceRecorder::global().event_count(), 0u);
}

TEST_F(TraceTest, ParallelForEmitsPerWorkerChunkSpans) {
  ScopedEnable on;
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(400, [&](std::size_t) {
    count.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(10));
  });
  EXPECT_EQ(count.load(), 400);
  const auto events = TraceRecorder::global().snapshot();
  std::size_t chunk_spans = 0;
  for (const auto& e : events) {
    if (e.name == "pool.chunk") {
      ++chunk_spans;
      EXPECT_EQ(e.category, "pool");
      EXPECT_GT(e.dur_us, 0.0);
    }
  }
  // One chunk per worker (4 workers, 400 items).
  EXPECT_EQ(chunk_spans, 4u);
}

TEST_F(TraceTest, ParallelForDynamicEmitsOneSpanPerWorker) {
  ScopedEnable on;
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for_dynamic(400, 1, [&](std::size_t) {
    count.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(10));
  });
  EXPECT_EQ(count.load(), 400);
  std::size_t worker_spans = 0;
  for (const auto& e : TraceRecorder::global().snapshot()) {
    if (e.name == "pool.worker") {
      ++worker_spans;
      EXPECT_EQ(e.category, "pool");
    }
  }
  EXPECT_EQ(worker_spans, 4u);
}

TEST_F(TraceTest, NowIsMonotonic) {
  TraceRecorder& rec = TraceRecorder::global();
  const double a = rec.now_us();
  const double b = rec.now_us();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace fastz::telemetry
