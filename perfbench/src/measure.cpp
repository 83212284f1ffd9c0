#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace perfbench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const noexcept {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::write_result_line(std::ostream& out, bool correct, std::uint64_t attempted,
                               std::uint64_t failed) const {
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // %.17g round-trips a double: every digit as measured.
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}\n";
}

void digest_alignments(fastz::DigestBuilder& digest,
                       const std::vector<fastz::Alignment>& alignments) {
  digest.update_u64(alignments.size());
  for (const fastz::Alignment& a : alignments) {
    digest.update_u64(a.a_begin).update_u64(a.a_end);
    digest.update_u64(a.b_begin).update_u64(a.b_end);
    digest.update_i64(a.score);
    digest.update_sized(a.ops.data(), a.ops.size() * sizeof(fastz::AlignOp));
  }
}

bool same_alignments(const std::vector<fastz::Alignment>& x,
                     const std::vector<fastz::Alignment>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const fastz::Alignment& p = x[i];
    const fastz::Alignment& q = y[i];
    if (p.a_begin != q.a_begin || p.a_end != q.a_end || p.b_begin != q.b_begin ||
        p.b_end != q.b_end || p.score != q.score || p.ops != q.ops) {
      return false;
    }
  }
  return true;
}

namespace {

void digest_double(fastz::DigestBuilder& digest, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  digest.update_u64(bits);
}

}  // namespace

void digest_run(fastz::DigestBuilder& digest, const fastz::FastzRun& run) {
  digest_double(digest, run.modeled.inspector_s);
  digest_double(digest, run.modeled.executor_s);
  digest_double(digest, run.modeled.other_s);
  for (const std::uint64_t v :
       {run.seeds, run.eager_handled, run.executor_tasks, run.executor_kernels,
        run.inspector_launches, run.inspector_cells, run.executor_cells,
        run.hirschberg_tasks}) {
    digest.update_u64(v);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
