// Exact order statistics over raw samples. serve::LatencyHistogram reports
// power-of-two bucket edges, which hide any tail change under 2x; the
// benchmark keeps every sample and ranks them instead.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace df::bench::screening {

/// One named measurement of a run. `detail` holds extra JSON members (for
/// percentiles: p, sample count, samples beyond, resolved).
struct Metric {
  Metric(std::string n, double v, std::string u, std::string d = "")
      : name(std::move(n)), value(v), unit(std::move(u)), detail(std::move(d)) {}

  std::string name;
  double value;
  std::string unit;
  std::string detail;
};

/// One percentile of a sample set, with the evidence behind it. A value
/// with fewer than kMinBeyond samples above its rank is unresolved: the
/// sample cannot tell that percentile from the maximum.
struct Percentile {
  static constexpr size_t kMinBeyond = 10;

  double p = 0.0;      // in (0, 1]
  double value = 0.0;  // nearest-rank sample; 0 when there are no samples
  size_t samples = 0;
  size_t beyond = 0;   // samples ranked above the reported one
  bool resolved() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile: the sample at rank ceil(p * n) (1-based).
inline Percentile percentile(std::vector<double> samples, double p) {
  Percentile r;
  r.p = p;
  r.samples = samples.size();
  if (samples.empty()) return r;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1), samples.end());
  r.value = samples[rank - 1];
  r.beyond = n - rank;
  return r;
}

/// A percentile as a metric, with its evidence in the detail.
inline Metric percentile_metric(const std::string& name, const std::vector<double>& samples,
                                double p, const std::string& unit) {
  const Percentile q = percentile(samples, p);
  return {name, q.value, unit,
          "\"p\": " + std::to_string(q.p) + ", \"samples\": " + std::to_string(q.samples) +
              ", \"beyond\": " + std::to_string(q.beyond) +
              ", \"resolved\": " + (q.resolved() ? "true" : "false")};
}

inline double median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> s = samples;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

}  // namespace df::bench::screening
