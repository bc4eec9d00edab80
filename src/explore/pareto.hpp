// Allocation design-space exploration.
//
// Sweeps unit allocations over a bounded grid, runs the full flow for each
// point, and reports the Pareto-optimal set under (average latency, total
// implementation cost), where cost = controller area (combinational +
// sequential incl. completion latches) + datapath registers (left-edge count
// x one FF-equivalent each) + unit count weights.  The §6 "resource
// allocation" piece of the envisioned HLS tool.
//
// Design points are evaluated concurrently on the global thread pool
// (TAUHLS_THREADS); the returned vector keeps the serial odometer order and
// every value is independent of the thread count.
//
// Each point drives the flow's pass pipeline directly (core/pipeline.hpp)
// and requests only the artifacts the objectives read -- latency, the
// distributed area report and the verification diagnostics -- so baseline
// area rows and RTL are never synthesized.  Points share an ArtifactCache:
// pass `ExploreOptions::cache` to extend the sharing across explore() calls
// (repeated sweeps, or a front refinement re-evaluating the same points,
// become pure cache hits).
#pragma once

#include <memory>
#include <vector>

#include "core/flow.hpp"
#include "core/pipeline.hpp"

namespace tauhls::explore {

struct DesignPoint {
  sched::Allocation allocation;
  double averageLatencyNs = 0.0;  ///< at the sweep's P
  int controllerArea = 0;         ///< DIST total (Com. + Seq. incl. latches)
  int datapathRegisters = 0;      ///< left-edge register count
  int unitCount = 0;
  bool paretoOptimal = false;

  /// Total cost used for dominance, with `unitWeight` area units per unit.
  int cost(int unitWeight) const;
};

/// Area units explore() charges per allocated unit in its cost objective.
inline constexpr int kUnitWeightArea = 200;

struct ExploreOptions {
  double p = 0.7;                ///< SD ratio for the latency objective
  int maxUnitsPerClass = 4;
  /// Artifact cache shared by every design point; null = one private cache
  /// per explore() call.  Reuse the same cache across calls to make repeated
  /// evaluations of a point free.
  std::shared_ptr<core::ArtifactCache> cache;
};

/// Sweep every combination of 1..maxUnitsPerClass units for each class
/// present in `g` (capped at the op count of that class) and mark the
/// Pareto front under (latency, cost).
std::vector<DesignPoint> explore(const dfg::Dfg& g, const ExploreOptions& options = {});

/// The Pareto-optimal subset of `points` (minimizing latency and cost).
std::vector<DesignPoint> paretoFront(const std::vector<DesignPoint>& points,
                                     int unitWeight);

}  // namespace tauhls::explore
