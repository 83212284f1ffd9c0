// Closed-loop load on the alignment service: N clients, each waiting for
// its reply before sending the next request, over a Zipf-skewed corpus of
// query windows against one shared target window. Every reply is checked
// bit for bit against a direct FastzStudy of the same pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fastz/fastz_pipeline.hpp"
#include "measure.hpp"
#include "sequence/genome_synth.hpp"
#include "sequence/sequence.hpp"
#include "service/result_cache.hpp"
#include "service/server.hpp"

namespace perfbench {

struct ServiceCorpus {
  fastz::Sequence target;
  std::vector<fastz::Sequence> queries;
  fastz::ScoreParams params;
  fastz::PipelineOptions options;
  std::vector<double> zipf_cdf;  // over query ranks
};

// The shared target is the `target_len` window of the pair's chromosome A
// that starts at its longest homology segment, so the queries overlapping
// that segment's copy in B align; `entries` distinct `query_len` windows
// of B at offsets drawn from `seed` are requested with Zipf(`skew`) ranks.
ServiceCorpus make_corpus(const fastz::SyntheticPair& pair, std::size_t target_len,
                          std::size_t query_len,
                          std::size_t entries, double skew, std::uint64_t seed,
                          const fastz::ScoreParams& params,
                          const fastz::PipelineOptions& options);

struct ServiceRun {
  // Over every request, the untimed warm-up included.
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t divergences = 0;
  // The timed requests only, after the warm-up.
  double wall_s = 0.0;
  Samples req_ms;   // submit -> future ready, every completed request
  Samples hit_ms;   // replies served from the result cache
  Samples miss_ms;  // replies that ran (or joined) a pipeline batch
  fastz::service::ServerStats server;
  fastz::service::CacheStats cache;

  double rps() const {
    return wall_s > 0.0 ? static_cast<double>(req_ms.count()) / wall_s : 0.0;
  }
  std::uint64_t failed() const { return shed + errors + divergences; }
};

// A fresh AlignmentServer (2 shards x 1 pass thread, default batching,
// cache on) serving `clients` closed-loop clients: `warmup` untimed
// requests that fill the cache, then `requests` timed ones. Every reply is
// checked against `oracle[i]`, the direct study of query i.
ServiceRun run_closed_loop(const ServiceCorpus& corpus,
                           const std::vector<fastz::FastzStudy>& oracle,
                           std::size_t clients, std::size_t warmup, std::size_t requests,
                           std::uint64_t seed);

}  // namespace perfbench
