#include "explore/pareto.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "regalloc/leftedge.hpp"
#include "sched/clique.hpp"

namespace tauhls::explore {

int DesignPoint::cost(int unitWeight) const {
  return controllerArea + datapathRegisters * synth::kAreaPerFlipFlop +
         unitCount * unitWeight;
}

std::vector<DesignPoint> explore(const dfg::Dfg& g,
                                 const ExploreOptions& options) {
  TAUHLS_CHECK(options.maxUnitsPerClass >= 1, "need at least one unit");
  // Classes present and their sweep ranges (capped at full concurrency:
  // beyond the minimum chain cover, extra units are never used).
  std::vector<dfg::ResourceClass> classes;
  std::vector<int> maxOf;
  for (dfg::ResourceClass cls :
       {dfg::ResourceClass::Multiplier, dfg::ResourceClass::Adder,
        dfg::ResourceClass::Subtractor, dfg::ResourceClass::Divider,
        dfg::ResourceClass::Logic}) {
    const std::size_t ops = g.opsOfClass(cls).size();
    if (ops == 0) continue;
    classes.push_back(cls);
    const int needed = static_cast<int>(sched::minChainCover(g, cls).size());
    maxOf.push_back(std::min(options.maxUnitsPerClass, needed));
  }
  TAUHLS_CHECK(!classes.empty(), "graph has no operations to allocate for");

  // Enumerate the allocation grid first (odometer order), then fan the
  // independent design points out over the pool; each slot is written by
  // exactly one task, so the resulting order matches the serial sweep.
  std::vector<sched::Allocation> grid;
  std::vector<int> counts(classes.size(), 1);
  while (true) {
    sched::Allocation alloc;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      alloc[classes[i]] = counts[i];
    }
    grid.push_back(std::move(alloc));

    // Odometer.
    std::size_t pos = 0;
    while (pos < counts.size()) {
      if (++counts[pos] <= maxOf[pos]) break;
      counts[pos] = 1;
      ++pos;
    }
    if (pos == counts.size()) break;
  }

  // Each point drives the pipeline directly, requesting only what the
  // objectives read: the latency comparison, the distributed area report and
  // the verification gate.  Demand-driven evaluation skips the baseline area
  // row the full flow would also synthesize, and the shared cache makes any
  // repeated evaluation of a point (across explore() calls, or between a
  // sweep and a follow-up report) a pointer copy.
  std::shared_ptr<core::ArtifactCache> cache =
      options.cache ? options.cache
                    : std::make_shared<core::ArtifactCache>();
  std::vector<DesignPoint> points(grid.size());
  common::parallelFor(grid.size(), [&](std::size_t i) {
    DesignPoint point;
    point.allocation = grid[i];

    core::FlowConfig cfg;
    cfg.allocation = point.allocation;
    cfg.ps = {options.p};
    core::FlowPipeline pipeline(g, cfg, cache);
    pipeline.require({core::Artifact::Latency, core::Artifact::DistArea,
                      core::Artifact::Diagnostics});
    core::throwIfVerificationFailed(
        pipeline.get<verify::Report>(core::Artifact::Diagnostics));
    const auto& latency =
        pipeline.get<sim::LatencyComparison>(core::Artifact::Latency);
    const auto& scheduled =
        pipeline.get<sched::ScheduledDfg>(core::Artifact::Schedule);
    point.averageLatencyNs = latency.dist.averageNs[0];
    point.controllerArea =
        pipeline.get<synth::DistributedAreaReport>(core::Artifact::DistArea)
            .total.totalArea();
    point.unitCount = static_cast<int>(scheduled.binding.numUnits());
    point.datapathRegisters =
        regalloc::leftEdgeRegisters(regalloc::distributedLifetimes(scheduled),
                                    scheduled.graph.numNodes())
            .numRegisters;
    points[i] = std::move(point);
  });
  const std::vector<DesignPoint> front =
      paretoFront(points, kUnitWeightArea);
  for (DesignPoint& p : points) {
    p.paretoOptimal = false;
    for (const DesignPoint& f : front) {
      if (f.allocation == p.allocation) p.paretoOptimal = true;
    }
  }
  return points;
}

std::vector<DesignPoint> paretoFront(const std::vector<DesignPoint>& points,
                                     int unitWeight) {
  std::vector<DesignPoint> front;
  for (const DesignPoint& candidate : points) {
    bool dominated = false;
    for (const DesignPoint& other : points) {
      const bool betterOrEqual =
          other.averageLatencyNs <= candidate.averageLatencyNs + 1e-9 &&
          other.cost(unitWeight) <= candidate.cost(unitWeight);
      const bool strictlyBetter =
          other.averageLatencyNs < candidate.averageLatencyNs - 1e-9 ||
          other.cost(unitWeight) < candidate.cost(unitWeight);
      if (betterOrEqual && strictlyBetter) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(candidate);
  }
  return front;
}

}  // namespace tauhls::explore
