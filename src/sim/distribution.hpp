// Exact latency distributions.
//
// Table 2 reports only expected latencies; for real-time budgeting the full
// probability mass function matters.  The pmf over makespan cycles is the
// exact makespan law (sim/stats.hpp: makespanHistogram) with every bucket
// weighted by its Bernoulli(P) probability.
#pragma once

#include <map>

#include "sim/stats.hpp"

namespace tauhls::sim {

struct LatencyDistribution {
  /// cycles -> probability (sums to 1).
  std::map<int, double> pmf;

  double mean() const;
  /// Smallest cycle count c with P(latency <= c) >= q.
  int quantile(double q) const;
  int minCycles() const;
  int maxCycles() const;
};

/// Exact pmf under `style` at SD-ratio `p`; the Distributed style requires
/// <= 24 TAU ops.
LatencyDistribution latencyDistribution(const sched::ScheduledDfg& s,
                                        ControlStyle style, double p);

}  // namespace tauhls::sim
