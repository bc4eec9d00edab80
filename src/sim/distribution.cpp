#include "sim/distribution.hpp"

#include <cmath>

#include "common/error.hpp"

namespace tauhls::sim {

double LatencyDistribution::mean() const {
  double m = 0.0;
  for (const auto& [cycles, prob] : pmf) m += cycles * prob;
  return m;
}

int LatencyDistribution::quantile(double q) const {
  TAUHLS_CHECK(q >= 0.0 && q <= 1.0, "quantile must lie in [0,1]");
  TAUHLS_CHECK(!pmf.empty(), "empty distribution");
  double cumulative = 0.0;
  for (const auto& [cycles, prob] : pmf) {
    cumulative += prob;
    if (cumulative >= q - 1e-12) return cycles;
  }
  return pmf.rbegin()->first;
}

int LatencyDistribution::minCycles() const {
  TAUHLS_CHECK(!pmf.empty(), "empty distribution");
  return pmf.begin()->first;
}

int LatencyDistribution::maxCycles() const {
  TAUHLS_CHECK(!pmf.empty(), "empty distribution");
  return pmf.rbegin()->first;
}

LatencyDistribution latencyDistribution(const sched::ScheduledDfg& s,
                                        ControlStyle style, double p) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  const MakespanHistogram h = makespanHistogram(s, style);
  LatencyDistribution dist;
  for (const auto& [key, count] : h.buckets) {
    const auto& [cycles, sdCount] = key;
    const double mass = static_cast<double>(count) * std::pow(p, sdCount) *
                        std::pow(1.0 - p, h.tauCount - sdCount);
    if (mass != 0.0) dist.pmf[cycles] += mass;
  }
  return dist;
}

}  // namespace tauhls::sim
