#include "service_loop.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "util/prng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using fastz::service::AlignRequest;
using fastz::service::AlignResult;

namespace {

std::size_t zipf_pick(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(cdf.size() - 1, static_cast<std::size_t>(it - cdf.begin()));
}

bool matches_direct(const AlignResult& result, const fastz::FastzStudy& direct) {
  return result.outcome.seeds == direct.seeds() &&
         result.outcome.inspector_cells == direct.inspector_cells() &&
         same_alignments(result.outcome.alignments, direct.alignments());
}

struct ClientLog {
  Samples req_ms, hit_ms, miss_ms;
  std::uint64_t completed = 0, shed = 0, errors = 0, divergences = 0;
};

}  // namespace

ServiceCorpus make_corpus(const fastz::SyntheticPair& pair, std::size_t target_len,
                          std::size_t query_len, std::size_t entries, double skew,
                          std::uint64_t seed, const fastz::ScoreParams& params,
                          const fastz::PipelineOptions& options) {
  const fastz::Sequence& a = pair.a;
  const fastz::Sequence& b = pair.b;
  ServiceCorpus corpus;
  corpus.params = params;
  corpus.options = options;
  fastz::Xoshiro256 rng(seed);
  target_len = std::min(target_len, a.size());
  query_len = std::min(query_len, b.size());
  std::size_t target_offset = 0, longest = 0;
  for (const fastz::SegmentRecord& seg : pair.segments) {
    if (seg.a_len > longest) {
      longest = seg.a_len;
      target_offset = seg.a_begin;
    }
  }
  corpus.target = a.subsequence(std::min(target_offset, a.size() - target_len), target_len,
                                "target");
  // Stratified offsets: window i starts at a random point of the i-th of
  // `entries` equal strata of B, so every seed covers B evenly and the
  // corpus's total work barely depends on the seed. The shuffle then gives
  // each seed its own hot windows.
  const double stratum =
      static_cast<double>(b.size() - query_len) / static_cast<double>(entries);
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < entries; ++i) {
    offsets.push_back(static_cast<std::size_t>((static_cast<double>(i) + rng.uniform()) * stratum));
  }
  for (std::size_t i = entries; i > 1; --i) std::swap(offsets[i - 1], offsets[rng.below(i)]);
  for (std::size_t i = 0; i < entries; ++i) {
    corpus.queries.push_back(b.subsequence(offsets[i], query_len, "query#" + std::to_string(i)));
  }
  double total = 0.0;
  for (std::size_t i = 0; i < entries; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    corpus.zipf_cdf.push_back(total);
  }
  for (double& c : corpus.zipf_cdf) c /= total;
  return corpus;
}

namespace {

// `clients` closed-loop clients send `requests` requests in all; request
// streams are drawn from `seed`. Returns the wallclock from the first send
// to the last reply.
double drive_clients(fastz::service::AlignmentServer& server, const ServiceCorpus& corpus,
                     const std::vector<fastz::FastzStudy>& oracle,
                     std::vector<ClientLog>& logs, std::size_t requests, std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  const std::size_t clients = logs.size();
  fastz::Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    const std::size_t quota = requests / clients + (t < requests % clients ? 1 : 0);
    threads.emplace_back([&, t, quota] {
      ClientLog& log = logs[t];
      fastz::Xoshiro256 rng(seed ^ (0x9E3779B97F4A7C15ull * (t + 1)));
      for (std::size_t i = 0; i < quota; ++i) {
        const std::size_t idx = zipf_pick(corpus.zipf_cdf, rng.uniform());
        AlignRequest request{corpus.target, corpus.queries[idx], corpus.params};
        const Clock::time_point start = Clock::now();
        try {
          const AlignResult result = server.submit(std::move(request)).get();
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - start).count();
          log.req_ms.add(ms);
          (result.cache_hit ? log.hit_ms : log.miss_ms).add(ms);
          ++log.completed;
          if (!matches_direct(result, oracle[idx])) ++log.divergences;
        } catch (const fastz::service::QueueFullError&) {
          ++log.shed;
        } catch (const std::exception&) {
          ++log.errors;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return wall.elapsed_s();
}

void add_failures(ServiceRun& run, const std::vector<ClientLog>& logs) {
  for (const ClientLog& log : logs) {
    run.completed += log.completed;
    run.shed += log.shed;
    run.errors += log.errors;
    run.divergences += log.divergences;
  }
}

}  // namespace

ServiceRun run_closed_loop(const ServiceCorpus& corpus,
                           const std::vector<fastz::FastzStudy>& oracle,
                           std::size_t clients, std::size_t warmup, std::size_t requests,
                           std::uint64_t seed) {
  fastz::service::ServerConfig config;
  config.shards = 2;
  config.threads_per_shard = 1;
  config.options = corpus.options;

  ServiceRun run;
  std::vector<ClientLog> warm_logs(clients), logs(clients);
  {
    fastz::service::AlignmentServer server(config);
    drive_clients(server, corpus, oracle, warm_logs, warmup, ~seed);
    const fastz::service::ServerStats warm = server.stats();
    const fastz::service::CacheStats warm_cache = server.cache_stats();
    run.wall_s = drive_clients(server, corpus, oracle, logs, requests, seed);
    run.server = server.stats();
    run.cache = server.cache_stats();
    // Counters of the timed requests only.
    run.server.cache_hits -= warm.cache_hits;
    run.server.coalesced -= warm.coalesced;
    run.server.batches -= warm.batches;
    run.cache.evictions -= warm_cache.evictions;
  }
  run.attempted = warmup + requests;
  add_failures(run, warm_logs);
  add_failures(run, logs);
  for (const ClientLog& log : logs) {
    run.req_ms.append(log.req_ms);
    run.hit_ms.append(log.hit_ms);
    run.miss_ms.append(log.miss_ms);
  }
  return run;
}

}  // namespace perfbench
