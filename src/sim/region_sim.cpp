#include "sim/region_sim.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace tauhls::sim {

MakespanHistogram convolveHistograms(const MakespanHistogram& a,
                                     const MakespanHistogram& b,
                                     int lawTauOps) {
  MakespanHistogram out;
  out.tauCount = a.tauCount + b.tauCount;
  for (const auto& [ka, ca] : a.buckets) {
    for (const auto& [kb, cb] : b.buckets) {
      std::uint64_t& count =
          out.buckets[{ka.first + kb.first, ka.second + kb.second}];
      std::uint64_t term = 0;
      // Refuse rather than wrap: a wrapped count silently skews every
      // statistic weighted from this histogram.
      TAUHLS_CHECK(!__builtin_mul_overflow(ca, cb, &term) &&
                       !__builtin_add_overflow(count, term, &count),
                   "makespan law of " + std::to_string(lawTauOps) +
                       " TAU ops overflows its 64-bit counts");
    }
  }
  return out;
}

MakespanHistogram composedHistogram(const sched::RegionSchedule& rs,
                                    ControlStyle style,
                                    const dfg::BranchChoices& choices) {
  std::map<std::string, MakespanHistogram> perLeaf;
  std::vector<const MakespanHistogram*> trace;
  int tauOps = 0;
  for (const std::string& path : dfg::activationTrace(rs.program, choices)) {
    auto [it, fresh] = perLeaf.try_emplace(path);
    if (fresh) it->second = makespanHistogram(rs.leaf(path), style);
    trace.push_back(&it->second);
    tauOps += it->second.tauCount;
  }
  MakespanHistogram out = MakespanHistogram::unit();
  for (const MakespanHistogram* leaf : trace) {
    out = convolveHistograms(out, *leaf, tauOps);
  }
  return out;
}

LatencyComparison composedLatency(const sched::RegionSchedule& rs,
                                  const dfg::BranchChoices& choices,
                                  const std::vector<double>& ps) {
  const double clockNs = rs.clockNs();
  const MakespanHistogram tau =
      composedHistogram(rs, ControlStyle::CentSync, choices);
  const MakespanHistogram dist =
      composedHistogram(rs, ControlStyle::Distributed, choices);
  LatencyComparison out;
  out.ps = ps;
  out.tau.bestNs = histogramBestCycles(tau) * clockNs;
  out.tau.worstNs = histogramWorstCycles(tau) * clockNs;
  out.dist.bestNs = histogramBestCycles(dist) * clockNs;
  out.dist.worstNs = histogramWorstCycles(dist) * clockNs;
  for (double p : ps) {
    const double tauNs = histogramAverageCycles(tau, p) * clockNs;
    const double distNs = histogramAverageCycles(dist, p) * clockNs;
    out.tau.averageNs.push_back(tauNs);
    out.dist.averageNs.push_back(distNs);
    out.enhancementPercent.push_back(
        tauNs > 0.0 ? (tauNs - distNs) / tauNs * 100.0 : 0.0);
  }
  return out;
}

}  // namespace tauhls::sim
