// fastz_stats — renders fastz.stats/v1 snapshot streams (JSONL) as a
// time-series table.
//
// bench_service --stats writes one cumulative snapshot per interval; this
// tool differences consecutive lines into per-interval rates (requests/s,
// sheds/s, per-kernel launch deltas) and prints instantaneous gauges
// (queue depth, cache hit rate, shard imbalance, latency quantiles)
// alongside. A single-snapshot file prints the absolute values. Exit
// codes: 0 ok, 2 usage/IO/parse error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "service/stats_snapshot.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

namespace {

double num_at(const telemetry::JsonValue& v, std::string_view section,
              std::string_view key) {
  const telemetry::JsonValue* s = v.find(section);
  if (s == nullptr) return 0.0;
  const telemetry::JsonValue* k = s->find(key);
  return k != nullptr && k->is_number() ? k->as_number() : 0.0;
}

// Latency sketches hold nanoseconds; the table prints milliseconds.
double latency_ms(const telemetry::JsonValue& v, std::string_view sketch,
                  std::string_view field) {
  const telemetry::JsonValue* lat = v.find("latency");
  if (lat == nullptr) return 0.0;
  const telemetry::JsonValue* s = lat->find(sketch);
  if (s == nullptr) return 0.0;
  const telemetry::JsonValue* f = s->find(field);
  return f != nullptr && f->is_number() ? f->as_number() * 1e-6 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "fastz_stats — renders a fastz.stats/v1 snapshot stream (JSONL) as a "
      "time-series table with per-interval rates.");
  cli.add_flag("input", "snapshot JSONL file (required; '-' = stdin)", "");
  cli.add_flag("csv", "emit CSV instead of an aligned table", "0");
  cli.add_flag("kernels", "also print the per-kernel launch-delta table", "0");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;

  const std::string input = cli.get("input");
  if (input.empty()) {
    std::cerr << "--input is required\n" << cli.help();
    return 2;
  }

  std::ifstream file;
  if (input != "-") {
    file.open(input);
    if (!file) {
      std::cerr << "cannot read '" << input << "'\n";
      return 2;
    }
  }
  std::istream& in = input == "-" ? std::cin : file;

  std::vector<telemetry::JsonValue> snaps;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      telemetry::JsonValue v = telemetry::JsonValue::parse(line);
      const telemetry::JsonValue* schema = v.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->as_string() != service::kStatsSchema) {
        std::cerr << input << ":" << line_no << ": not a " << service::kStatsSchema
                  << " snapshot\n";
        return 2;
      }
      snaps.push_back(std::move(v));
    } catch (const std::exception& e) {
      std::cerr << input << ":" << line_no << ": " << e.what() << "\n";
      return 2;
    }
  }
  if (snaps.empty()) {
    std::cerr << input << ": no snapshots\n";
    return 2;
  }

  const bool csv = cli.get_bool("csv");
  TextTable table({"t_s", "req/s", "shed/s", "queue", "batch_occ", "cache_hit",
                   "imbalance", "p50 ms", "p99 ms", "slo_burn"});
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const telemetry::JsonValue& cur = snaps[i];
    const telemetry::JsonValue* prev = i == 0 ? nullptr : &snaps[i - 1];
    const telemetry::JsonValue* uptime = cur.find("uptime_s");
    const double t1 = uptime != nullptr && uptime->is_number() ? uptime->as_number() : 0.0;
    const double t0 = prev == nullptr ? 0.0 : prev->at("uptime_s").as_number();
    const double dt = t1 - t0;
    const auto rate = [&](std::string_view section, std::string_view key) {
      const double c = num_at(cur, section, key);
      if (prev == nullptr || dt <= 0.0) return dt > 0.0 ? c / dt : 0.0;
      return (c - num_at(*prev, section, key)) / dt;
    };
    table.add_row(
        {TextTable::num(t1, 2),
         TextTable::num(rate("requests", "completed"), 1),
         TextTable::num(rate("requests", "shed"), 1),
         TextTable::num(num_at(cur, "queue", "depth"), 0),
         TextTable::num(num_at(cur, "batches", "occupancy"), 2),
         TextTable::num(num_at(cur, "cache", "hit_rate"), 3),
         TextTable::num(num_at(cur, "shards", "imbalance"), 2),
         TextTable::num(latency_ms(cur, "request_ns", "p50_ns"), 3),
         TextTable::num(latency_ms(cur, "request_ns", "p99_ns"), 3),
         TextTable::num(num_at(cur, "slo", "burn_rate"), 4)});
  }
  table.render(std::cout, csv);

  if (cli.get_bool("kernels")) {
    const telemetry::JsonValue* kernels = snaps.back().find("kernels");
    if (kernels != nullptr && kernels->is_object()) {
      std::cout << "\n";
      TextTable kt({"kernel", "launches", "tasks", "time_ms"});
      // Totals from the last snapshot minus the first (the run's window
      // when the stream starts at zero).
      const telemetry::JsonValue* first =
          snaps.size() > 1 ? snaps.front().find("kernels") : nullptr;
      for (const auto& [name, totals] : kernels->as_object()) {
        double launches = totals.at("launches").as_number();
        double tasks = totals.at("tasks").as_number();
        double time_s = totals.at("time_s").as_number();
        if (first != nullptr && first->find(name) != nullptr) {
          const telemetry::JsonValue& f = *first->find(name);
          launches -= f.at("launches").as_number();
          tasks -= f.at("tasks").as_number();
          time_s -= f.at("time_s").as_number();
        }
        kt.add_row({name, TextTable::num(launches, 0), TextTable::num(tasks, 0),
                    TextTable::num(time_s * 1e3, 3)});
      }
      kt.render(std::cout, csv);
    }
  }
  return 0;
}
