#include "sim/region_sim.hpp"

#include <map>
#include <string>

namespace tauhls::sim {

MakespanHistogram convolveHistograms(const MakespanHistogram& a,
                                     const MakespanHistogram& b) {
  MakespanHistogram out;
  out.tauCount = a.tauCount + b.tauCount;
  for (const auto& [ka, ca] : a.buckets) {
    for (const auto& [kb, cb] : b.buckets) {
      out.buckets[{ka.first + kb.first, ka.second + kb.second}] += ca * cb;
    }
  }
  return out;
}

MakespanHistogram composedHistogram(const sched::RegionSchedule& rs,
                                    ControlStyle style,
                                    const dfg::BranchChoices& choices) {
  std::map<std::string, MakespanHistogram> perLeaf;
  MakespanHistogram out = MakespanHistogram::unit();
  for (const std::string& path : dfg::activationTrace(rs.program, choices)) {
    auto it = perLeaf.find(path);
    if (it == perLeaf.end()) {
      it = perLeaf.emplace(path, makespanHistogram(rs.leaf(path), style)).first;
    }
    out = convolveHistograms(out, it->second);
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
