// Composed makespan statistics for region programs.
//
// The key identity: under the sequencer's start/done handshake an activation
// begins only when the previous one has fully completed, so the composed
// makespan of an activation trace is the *sum* of per-activation makespans,
// and the operand classes of distinct activations are independent
// Bernoulli(P) draws.  We therefore represent each leaf's exact makespan law
// as an integer 2-D MakespanHistogram
//
//     (cycles, #SD-ops) -> number of class assignments
//
// (sim/stats.hpp: makespanHistogram) and compose activations by convolution
// (cycles add, SD counts add, counts multiply).  The flat-inlined unrolled
// reference graph (sched::flattenScheduled) gets *its* law in the same
// domain; because the barrier state edges make its makespan exactly the
// per-activation sum, the two integer histograms are equal bucket-for-bucket
// -- and every statistic derived through the one shared weighting function
// (P-averages, best, worst) is bit-identical, the cross-check the tests and
// the regions bench enforce.
#pragma once

#include <vector>

#include "sched/region_schedule.hpp"
#include "sim/stats.hpp"

namespace tauhls::sim {

/// Law of the sum of two independent makespans.  Throws tauhls::Error,
/// naming `lawTauOps` (the TAU ops of the whole law being composed), when a
/// count would overflow 64 bits -- from about 68 TAU ops on a chain.
MakespanHistogram convolveHistograms(const MakespanHistogram& a,
                                     const MakespanHistogram& b,
                                     int lawTauOps);

/// Composed law of the whole program under `choices`: per-leaf histograms
/// convolved along the activation trace.
MakespanHistogram composedHistogram(const sched::RegionSchedule& rs,
                                    ControlStyle style,
                                    const dfg::BranchChoices& choices);

/// Composed Table-2 comparison (LT_TAU vs LT_DIST, in ns) for the program
/// under `choices`, exact at every requested P.
LatencyComparison composedLatency(const sched::RegionSchedule& rs,
                                  const dfg::BranchChoices& choices,
                                  const std::vector<double>& ps);

}  // namespace tauhls::sim
