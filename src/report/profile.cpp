#include "report/profile.hpp"

#include <algorithm>
#include <fstream>

#include "telemetry/json.hpp"
#include "telemetry/trace_context.hpp"
#include "util/table.hpp"

namespace fastz {

namespace {

using gpusim::KernelProfile;

void write_ledger(telemetry::JsonWriter& w, const gpusim::MemoryLedger& t) {
  w.begin_object();
  w.field("score_read_bytes", t.score_read_bytes);
  w.field("score_write_bytes", t.score_write_bytes);
  w.field("boundary_spill_bytes", t.boundary_spill_bytes);
  w.field("traceback_bytes", t.traceback_bytes);
  w.field("traceback_wire_bytes", t.traceback_wire_bytes);
  w.field("sequence_bytes", t.sequence_bytes);
  w.field("host_copy_bytes", t.host_copy_bytes);
  w.field("register_elided_bytes", t.register_elided_bytes);
  w.field("shared_staged_bytes", t.shared_staged_bytes);
  w.field("staging_buffer_bytes", t.staging_buffer_bytes);
  // Derived per-level view, denormalized so consumers need no ledger math.
  w.field("materialized_score_bytes", t.materialized_score_bytes());
  w.field("l2_bytes", t.l2_bytes());
  w.field("dram_bytes", t.dram_bytes());
  w.end_object();
}

}  // namespace

ProfileSummary summarize_profile(const gpusim::ProfilerSession& session) {
  ProfileSummary s;
  const std::vector<KernelProfile> kernels = session.kernels();
  s.kernels = kernels.size();
  s.seeds = session.seeds();
  s.eager_handled = session.eager_handled();
  s.eager_hit_rate = session.eager_hit_rate();
  s.traffic = session.traffic();
  s.score_elision_ratio = session.score_elision_ratio();

  double span_sum = 0.0;
  double occ_weighted = 0.0;
  double imb_weighted = 0.0;
  for (const KernelProfile& k : kernels) {
    s.tasks += k.counters.tasks;
    s.issued_warp_cycles += k.counters.issued_warp_cycles;
    s.stalled_warp_cycles += k.counters.stalled_warp_cycles;
    s.total_time_s = std::max(s.total_time_s, k.end_s);
    const double span = k.end_s - k.start_s;
    span_sum += span;
    occ_weighted += k.counters.achieved_occupancy * span;
    imb_weighted += k.counters.load_imbalance() * span;
    s.max_load_imbalance = std::max(s.max_load_imbalance, k.counters.load_imbalance());
  }
  if (span_sum > 0.0) {
    s.mean_occupancy = occ_weighted / span_sum;
    s.mean_load_imbalance = imb_weighted / span_sum;
  }
  return s;
}

void print_profile(std::ostream& out, const gpusim::ProfilerSession& session,
                   bool csv) {
  const std::vector<KernelProfile> kernels = session.kernels();
  const ProfileSummary s = summarize_profile(session);

  TextTable table({"kernel", "stream", "tasks", "time_ms", "occupancy",
                   "imbalance", "tail_ms", "stall%", "elision"});
  for (const KernelProfile& k : kernels) {
    const std::uint64_t cycles =
        k.counters.issued_warp_cycles + k.counters.stalled_warp_cycles;
    const double stall_pct =
        cycles == 0 ? 0.0
                    : 100.0 * static_cast<double>(k.counters.stalled_warp_cycles) /
                          static_cast<double>(cycles);
    table.add_row({k.tag.name, TextTable::num(std::uint64_t{k.tag.stream}),
                   TextTable::num(k.counters.tasks),
                   TextTable::num(k.cost.time_s * 1e3, 3),
                   TextTable::num(k.counters.achieved_occupancy, 3),
                   TextTable::num(k.counters.load_imbalance(), 2),
                   TextTable::num(k.counters.tail_latency_s * 1e3, 3),
                   TextTable::num(stall_pct, 1),
                   TextTable::num(k.counters.traffic.score_elision_ratio(), 3)});
  }
  table.render(out, csv);
  if (csv) return;

  out << "\nkernels " << s.kernels << ", tasks " << s.tasks
      << ", modeled timeline " << TextTable::num(s.total_time_s * 1e3, 3) << " ms\n";
  out << "achieved occupancy (span-weighted mean) "
      << TextTable::num(s.mean_occupancy, 3) << ", load imbalance mean "
      << TextTable::num(s.mean_load_imbalance, 2) << " / max "
      << TextTable::num(s.max_load_imbalance, 2) << "\n";
  out << "eager-traceback hit rate " << TextTable::num(s.eager_hit_rate, 4)
      << "  (" << s.eager_handled << " of " << s.seeds << " seeds)\n";
  out << "score-traffic elision ratio "
      << TextTable::num(s.score_elision_ratio, 4) << "  ("
      << s.traffic.register_elided_bytes << " B kept in registers, "
      << s.traffic.materialized_score_bytes() << " B materialized)\n";
}

void write_profile_json(std::ostream& out, const gpusim::ProfilerSession& session,
                        const std::string& name, const std::string& device) {
  const std::vector<KernelProfile> kernels = session.kernels();
  const ProfileSummary s = summarize_profile(session);

  telemetry::JsonWriter w(out);
  w.begin_object();
  w.field("schema", kProfileSchema);
  w.field("name", name);
  w.field("device", device);

  w.key("summary").begin_object();
  w.field("kernels", s.kernels);
  w.field("tasks", s.tasks);
  w.field("total_time_s", s.total_time_s);
  w.field("seeds", s.seeds);
  w.field("eager_handled", s.eager_handled);
  w.field("eager_hit_rate", s.eager_hit_rate);
  w.field("score_elision_ratio", s.score_elision_ratio);
  w.field("issued_warp_cycles", s.issued_warp_cycles);
  w.field("stalled_warp_cycles", s.stalled_warp_cycles);
  w.field("mean_occupancy", s.mean_occupancy);
  w.field("mean_load_imbalance", s.mean_load_imbalance);
  w.field("max_load_imbalance", s.max_load_imbalance);
  w.key("traffic");
  write_ledger(w, s.traffic);
  w.end_object();

  w.key("kernels").begin_array();
  for (const KernelProfile& k : kernels) {
    w.begin_object();
    w.field("name", k.tag.name);
    w.field("phase", k.tag.phase);
    w.field("stream", std::uint64_t{k.tag.stream});
    if (k.tag.batch != Digest128{}) {
      w.field("batch", telemetry::trace_id_hex(k.tag.batch));
    }
    if (k.tag.request != Digest128{}) {
      w.field("request", telemetry::trace_id_hex(k.tag.request));
    }
    w.field("start_s", k.start_s);
    w.field("end_s", k.end_s);
    w.field("time_s", k.cost.time_s);
    w.field("compute_time_s", k.cost.compute_time_s);
    w.field("memory_time_s", k.cost.memory_time_s);
    w.field("launch_overhead_s", k.cost.launch_overhead_s);
    w.field("memory_bound", k.cost.memory_bound());
    w.field("tasks", k.counters.tasks);
    w.field("warp_instructions", k.counters.warp_instructions);
    w.field("issued_warp_cycles", k.counters.issued_warp_cycles);
    w.field("stalled_warp_cycles", k.counters.stalled_warp_cycles);
    w.field("achieved_occupancy", k.counters.achieved_occupancy);
    w.field("divergence_derate", k.counters.divergence_derate);
    w.field("load_imbalance", k.counters.load_imbalance());
    w.field("tail_latency_s", k.counters.tail_latency_s);
    w.field("elision_ratio", k.counters.traffic.score_elision_ratio());
    w.key("sm_busy_s").begin_array();
    for (const double busy : k.counters.sm_busy_s) w.value(busy);
    w.end_array();
    w.key("traffic");
    write_ledger(w, k.counters.traffic);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

bool write_profile_file(const std::string& path, const gpusim::ProfilerSession& session,
                        const std::string& name, const std::string& device) {
  std::ofstream out(path);
  if (!out) return false;
  write_profile_json(out, session, name, device);
  return out.good();
}

std::vector<telemetry::TraceEvent> profile_trace_events(
    const gpusim::ProfilerSession& session, double timeline_offset_us,
    double time_scale) {
  std::vector<telemetry::TraceEvent> events;
  const std::vector<KernelProfile> kernels = session.kernels();
  events.reserve(kernels.size() * 2);
  for (const KernelProfile& k : kernels) {
    telemetry::TraceEvent e;
    e.name = k.tag.name;
    e.category = k.tag.phase.empty() ? "gpusim" : k.tag.phase;
    e.ts_us = timeline_offset_us + k.start_s * time_scale;
    e.dur_us = (k.end_s - k.start_s) * time_scale;
    e.tid = k.tag.stream;
    e.pid = 2;
    e.phase = 'X';
    e.args = {{"occupancy", k.counters.achieved_occupancy},
              {"load_imbalance", k.counters.load_imbalance()},
              {"tasks", static_cast<double>(k.counters.tasks)},
              {"elision_ratio", k.counters.traffic.score_elision_ratio()},
              {"tail_latency_ms", k.counters.tail_latency_s * 1e3}};
    if (k.tag.batch != Digest128{}) {
      e.str_args.emplace_back("batch", telemetry::trace_id_hex(k.tag.batch));
    }
    if (k.tag.request != Digest128{}) {
      e.str_args.emplace_back("request", telemetry::trace_id_hex(k.tag.request));
    }
    events.push_back(e);

    // Counter track sampled at each kernel start: renders the occupancy /
    // imbalance trajectory over the run in the trace viewer.
    telemetry::TraceEvent c;
    c.name = "gpu counters";
    c.category = "gpusim";
    c.ts_us = e.ts_us;
    c.tid = 0;
    c.pid = 2;
    c.phase = 'C';
    c.args = {{"occupancy", k.counters.achieved_occupancy},
              {"load_imbalance", k.counters.load_imbalance()}};
    events.push_back(std::move(c));
  }
  return events;
}

}  // namespace fastz
