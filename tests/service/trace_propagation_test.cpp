// End-to-end trace propagation through the alignment service: every
// request's spans carry its minted request id and the sealing batch id,
// coalesced duplicates each get their own span linked to the owning
// derive by a flow arrow, cache hits trace through the cache path without
// touching the pipeline, virtual-GPU kernel launches are stamped with the
// owning batch/request, and sheds leave post-mortem dumps naming the
// victim. Runs under the TSan CI job (FASTZ_THREADS=4) — the concurrent
// cases double as race detectors for the id plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <future>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/profiler.hpp"
#include "service/server.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_context.hpp"
#include "testing/corpus.hpp"

namespace fastz::service {
namespace {

using fastz::testing::CaseKind;
using fastz::testing::make_case_of_kind;
using telemetry::TraceEvent;

ServerConfig small_config() {
  ServerConfig config;
  config.queue_limit = 32;
  config.batch_max = 8;
  config.batch_window_s = 1e-4;
  config.shards = 1;
  auto c = make_case_of_kind(11, CaseKind::kPipeline);
  config.options = c.pipeline;
  return config;
}

AlignRequest request_from(const fastz::testing::FuzzCase& c) {
  AlignRequest req;
  req.a = c.a;
  req.b = c.b;
  req.params = c.params;
  return req;
}

// The value of a string arg ("request" / "batch") on a span, or "".
std::string str_arg(const TraceEvent& e, std::string_view key) {
  for (const auto& [k, v] : e.str_args) {
    if (k == key) return v;
  }
  return {};
}

std::vector<TraceEvent> spans_named(const std::vector<TraceEvent>& events,
                                    std::string_view name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (e.name == name && e.phase == 'X') out.push_back(e);
  }
  return out;
}

// Every test records into the process-global recorder; start from a clean
// slate so assertions see only this test's events.
void reset_telemetry() {
  telemetry::TraceRecorder::global().clear();
  telemetry::MetricsRegistry::global().reset_values();
  telemetry::FlightRecorder::global().clear();
}

TEST(TracePropagation, RequestSpansShareOneBatchId) {
  telemetry::ScopedEnable scoped;
  reset_telemetry();
  AlignmentServer server(small_config(), /*start_paused=*/true);
  auto f1 = server.submit(request_from(make_case_of_kind(11, CaseKind::kPipeline)));
  auto f2 = server.submit(request_from(make_case_of_kind(202, CaseKind::kPipeline)));
  server.resume();
  f1.get();
  f2.get();
  // The worker records the batch span after fulfilling the futures; join it
  // so the span is in the snapshot.
  server.shutdown();

  const auto events = telemetry::TraceRecorder::global().snapshot();
  const auto requests = spans_named(events, "service.request");
  const auto waits = spans_named(events, "service.queue_wait");
  const auto derives = spans_named(events, "service.derive");
  const auto batches = spans_named(events, "service.batch");
  ASSERT_EQ(requests.size(), 2u);
  ASSERT_EQ(waits.size(), 2u);
  ASSERT_EQ(derives.size(), 2u);
  ASSERT_EQ(batches.size(), 1u) << "two staged requests seal into one batch";

  const std::string batch_hex = str_arg(batches[0], "batch");
  EXPECT_EQ(batch_hex.size(), 32u);
  EXPECT_NE(batch_hex, std::string(32, '0'));
  std::set<std::string> request_ids;
  for (const TraceEvent& e : requests) {
    EXPECT_EQ(e.pid, 3u) << "request lifecycle spans live on the service lane";
    EXPECT_EQ(str_arg(e, "batch"), batch_hex);
    const std::string rid = str_arg(e, "request");
    EXPECT_EQ(rid.size(), 32u);
    request_ids.insert(rid);
  }
  EXPECT_EQ(request_ids.size(), 2u) << "each request keeps its own id";
  for (const TraceEvent& e : waits) {
    EXPECT_EQ(str_arg(e, "batch"), batch_hex);
    EXPECT_EQ(request_ids.count(str_arg(e, "request")), 1u);
  }
  for (const TraceEvent& e : derives) {
    EXPECT_EQ(str_arg(e, "batch"), batch_hex);
    EXPECT_EQ(request_ids.count(str_arg(e, "request")), 1u);
  }
  // The request span covers submit -> fulfill, so it encloses its queue wait.
  for (const TraceEvent& r : requests) {
    for (const TraceEvent& w : waits) {
      if (str_arg(w, "request") != str_arg(r, "request")) continue;
      EXPECT_NEAR(w.ts_us, r.ts_us, 1.0);
      EXPECT_LE(w.dur_us, r.dur_us + 1.0);
    }
  }
}

TEST(TracePropagation, ConcurrentBatchesKeepDistinctBatchIds) {
  telemetry::ScopedEnable scoped;
  reset_telemetry();
  ServerConfig config = small_config();
  config.enable_batching = false;  // one batch per request: ids must differ
  config.enable_cache = false;
  config.shards = 2;
  AlignmentServer server(config);

  constexpr int kClients = 3;
  constexpr int kPerClient = 2;
  std::vector<fastz::testing::FuzzCase> cases;
  for (std::uint64_t seed : {11ull, 202ull, 12ull, 13ull, 14ull, 15ull}) {
    cases.push_back(make_case_of_kind(seed, CaseKind::kPipeline));
  }
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerClient; ++i) {
        server.submit(request_from(cases[t * kPerClient + i])).get();
      }
    });
  }
  for (auto& th : clients) th.join();

  const auto requests = spans_named(
      telemetry::TraceRecorder::global().snapshot(), "service.request");
  ASSERT_EQ(requests.size(), static_cast<std::size_t>(kClients * kPerClient));
  std::set<std::string> request_ids;
  std::set<std::string> batch_ids;
  for (const TraceEvent& e : requests) {
    request_ids.insert(str_arg(e, "request"));
    batch_ids.insert(str_arg(e, "batch"));
  }
  EXPECT_EQ(request_ids.size(), requests.size());
  EXPECT_EQ(batch_ids.size(), requests.size())
      << "unbatched dispatches must each seal their own batch id";
  EXPECT_EQ(batch_ids.count(std::string(32, '0')), 0u);
}

TEST(TracePropagation, CoalescedDuplicatesGetLinkedSpans) {
  telemetry::ScopedEnable scoped;
  reset_telemetry();
  ServerConfig config = small_config();
  config.enable_cache = false;  // isolate in-batch coalescing
  AlignmentServer server(config, /*start_paused=*/true);
  const auto c = make_case_of_kind(11, CaseKind::kPipeline);
  auto f1 = server.submit(request_from(c));
  auto f2 = server.submit(request_from(c));
  auto f3 = server.submit(request_from(c));
  server.resume();
  f1.get();
  f2.get();
  f3.get();

  const auto events = telemetry::TraceRecorder::global().snapshot();
  const auto requests = spans_named(events, "service.request");
  ASSERT_EQ(requests.size(), 3u) << "every duplicate gets its own span";
  std::set<std::string> ids;
  int coalesced = 0;
  std::string owner_id;
  for (const TraceEvent& e : requests) {
    ids.insert(str_arg(e, "request"));
    bool is_coalesced = false;
    for (const auto& [k, v] : e.args) {
      if (k == "coalesced" && v == 1.0) is_coalesced = true;
    }
    if (is_coalesced) {
      ++coalesced;
    } else {
      owner_id = str_arg(e, "request");
    }
  }
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(coalesced, 2);
  ASSERT_FALSE(owner_id.empty());

  // Exactly one derive (the shared work), one flow start at the owner, and
  // one flow finish per coalesced duplicate, all on the same flow id.
  EXPECT_EQ(spans_named(events, "service.derive").size(), 1u);
  const std::string flow = "coal:" + owner_id;
  int starts = 0;
  int finishes = 0;
  for (const TraceEvent& e : events) {
    if (e.phase == 's' && e.flow_id == flow) ++starts;
    if (e.phase == 'f' && e.flow_id == flow) ++finishes;
  }
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(finishes, 2);
}

TEST(TracePropagation, CacheHitTracesThroughTheCachePath) {
  telemetry::ScopedEnable scoped;
  reset_telemetry();
  AlignmentServer server(small_config());
  const auto c = make_case_of_kind(11, CaseKind::kPipeline);
  server.submit(request_from(c)).get();

  // Isolate the repeat: its span must come from the cache path alone.
  telemetry::TraceRecorder::global().clear();
  server.submit(request_from(c)).get();
  const auto events = telemetry::TraceRecorder::global().snapshot();
  const auto hits = spans_named(events, "service.request.cache_hit");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(str_arg(hits[0], "request").size(), 32u);
  EXPECT_NE(str_arg(hits[0], "batch"), std::string(32, '0'))
      << "even a cache hit rides a sealed batch";
  EXPECT_TRUE(spans_named(events, "service.derive").empty())
      << "a cache hit must not reach the pipeline";
  EXPECT_EQ(server.stats().pipeline_items, 1u);
  // The cache-hit latency lands in its dedicated sketch.
  EXPECT_GE(telemetry::MetricsRegistry::global()
                .sketch("service.latency.cache_hit_ns")
                .count(),
            1u);
}

TEST(TracePropagation, KernelLaunchesCarryBatchAndRequestIds) {
  telemetry::ScopedEnable scoped;
  reset_telemetry();
  gpusim::ProfilerSession session;
  gpusim::ScopedProfiler profiler(session);
  ServerConfig config = small_config();
  config.enable_cache = false;
  AlignmentServer server(config, /*start_paused=*/true);
  auto f1 = server.submit(request_from(make_case_of_kind(11, CaseKind::kPipeline)));
  auto f2 = server.submit(request_from(make_case_of_kind(202, CaseKind::kPipeline)));
  server.resume();
  f1.get();
  f2.get();
  server.shutdown();

  const auto kernels = session.kernels();
  ASSERT_FALSE(kernels.empty());
  // Derive-phase launches happen under the owning request's context: every
  // one is stamped, and both requests contribute launches to one batch.
  std::set<Digest128> batches;
  std::set<Digest128> requests;
  for (const auto& k : kernels) {
    EXPECT_NE(k.tag.batch, Digest128{})
        << "unstamped launch " << k.tag.name << " inside the service";
    EXPECT_NE(k.tag.request, Digest128{}) << k.tag.name;
    batches.insert(k.tag.batch);
    requests.insert(k.tag.request);
  }
  EXPECT_EQ(batches.size(), 1u);
  EXPECT_EQ(requests.size(), 2u);
}

TEST(TracePropagation, QueueFullShedDumpsPostmortemNamingTheVictim) {
  reset_telemetry();  // flight recorder is always on; telemetry stays off
  ServerConfig config = small_config();
  config.queue_limit = 2;
  config.postmortem_path = ::testing::TempDir() + "trace_prop_pm";
  AlignmentServer server(config, /*start_paused=*/true);
  const auto c = make_case_of_kind(11, CaseKind::kPipeline);
  auto f1 = server.submit(request_from(c));
  auto f2 = server.submit(request_from(c));
  EXPECT_THROW(server.submit(request_from(c)), QueueFullError);
  EXPECT_EQ(server.stats().shed_queue_full, 1u);

  std::ifstream dump(config.postmortem_path + ".queue_full.json");
  ASSERT_TRUE(dump.good()) << "first queue-full shed must write a post-mortem";
  std::string json((std::istreambuf_iterator<char>(dump)),
                   std::istreambuf_iterator<char>());
  const telemetry::JsonValue doc = telemetry::JsonValue::parse(json);
  EXPECT_EQ(doc.at("schema").as_string(), "fastz.flight/v1");
  EXPECT_EQ(doc.at("cause").as_string(), "queue_full");
  bool victim_named = false;
  for (const auto& ev : doc.at("events").as_array()) {
    if (ev.at("kind").as_string() != "shed_queue_full") continue;
    victim_named = ev.find("request") != nullptr &&
                   ev.at("request").as_string().size() == 32;
    EXPECT_EQ(ev.at("arg1").as_number(), 2.0) << "arg1 carries the queue limit";
  }
  EXPECT_TRUE(victim_named) << "the dump must carry the shed request's id";

  server.resume();
  f1.get();
  f2.get();
  server.shutdown();
  std::ifstream drain(config.postmortem_path + ".shutdown_drain.json");
  EXPECT_TRUE(drain.good()) << "shutdown drain always dumps";
}

TEST(TracePropagation, DisabledTelemetryRecordsNoSpansButStillFliesTheRecorder) {
  reset_telemetry();
  ASSERT_FALSE(telemetry::enabled());
  AlignmentServer server(small_config());
  server.submit(request_from(make_case_of_kind(11, CaseKind::kPipeline))).get();
  EXPECT_EQ(telemetry::TraceRecorder::global().event_count(), 0u)
      << "spans are gated on the telemetry switch";
  // The flight recorder is always on: submit/dispatch/complete are there.
  const auto flight = telemetry::FlightRecorder::global().snapshot();
  EXPECT_GE(flight.size(), 3u);
  bool complete_seen = false;
  for (const auto& ev : flight) {
    complete_seen |= ev.kind == telemetry::FlightEventKind::kComplete;
  }
  EXPECT_TRUE(complete_seen);
}

}  // namespace
}  // namespace fastz::service
