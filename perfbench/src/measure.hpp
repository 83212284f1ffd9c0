// Measurement helpers of the repository benchmark: sample sets with
// median / nearest-rank percentiles, the named-metric report the benchmark
// prints, output digests, and process peak RSS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "align/alignment.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "util/digest.hpp"

namespace perfbench {

// A set of timing samples. Percentiles are nearest-rank over the sorted
// samples, so a reported value is always one that was measured.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  std::size_t count() const noexcept { return values_.size(); }
  double sum() const noexcept;
  double median() const;
  // Nearest-rank percentile, p in (0, 100]; 0 for an empty set.
  double percentile(double p) const;
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Ordered metric set; written as the JSON object of the result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  // The result line: {"correct":..,"attempted":..,"failed":..,
  // "metrics":{name:{"value":v,"unit":u},...}} with full-precision values.
  void write_result_line(std::ostream& out, bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// Content digest of alignments (coordinates, score, op list) in order.
void digest_alignments(fastz::DigestBuilder& digest,
                       const std::vector<fastz::Alignment>& alignments);
bool same_alignments(const std::vector<fastz::Alignment>& x,
                     const std::vector<fastz::Alignment>& y);

// Bit-exact digest of a derived run's modeled values.
void digest_run(fastz::DigestBuilder& digest, const fastz::FastzRun& run);

// Process peak resident set size in MB (getrusage ru_maxrss).
double peak_rss_mb();

}  // namespace perfbench
