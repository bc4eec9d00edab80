// Latency statistics over the Bernoulli(P) operand-class model (Table 2).
//
// Every exact statistic is a weighting of one integer histogram, the
// MakespanHistogram (makespan cycles, SD count) -> number of assignments.
// The histogram does not depend on P, so a whole P column costs one build:
//  * Distributed: MakespanEngine::frontierHistogram, a dynamic program over
//    the slots in topological order whose states are the ready cycles a
//    later slot still reads plus the running makespan.  Past
//    kFrontierStateCap states the Gray-code DistributedSweep fills the same
//    histogram from all 2^n masks instead.
//  * CentSync: the law counts the O(steps) mask evaluation over all 2^n
//    masks; the expectation alone is the closed form sum over steps of
//    (2 - p^k) (a step with k TAU ops costs 2 cycles unless all k hit SD),
//    O(steps) and uncapped.
// Both laws need n <= kMaxExactTauOps (24) TAU ops.  Past that cap the
// Distributed column is sampled by seeded Monte-Carlo: masks drawn exactly as
// std::mt19937_64 + std::bernoulli_distribution would draw them, and
// evaluated through a reused scratch engine.
//
// All of it is deterministic.  histogramAverageCycles walks the buckets in
// sorted order, so equal histograms give bit-identical doubles however they
// were built (DP, sweep, brute-force reference, region composition).
// Histogram counts and Monte-Carlo moments are integer sums, exact for any
// chunk grid; Monte-Carlo sample i always draws from counter seed
// `seed + i`.  So every statistic is bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/makespan.hpp"

namespace tauhls::sim {

enum class ControlStyle {
  Distributed,  ///< the paper's proposal (LT_DIST)
  CentSync,     ///< synchronized TAUBM expansion (LT_TAU)
};

/// TAU-op cap of the exact makespan laws (the CentSync expectation is
/// closed-form and uncapped); past it the Distributed column is sampled.
inline constexpr int kMaxExactTauOps = 24;

/// Best case: every TAU op in the SD class.
int bestCaseCycles(const sched::ScheduledDfg& s, ControlStyle style);
/// Worst case: every TAU op in the LD class.
int worstCaseCycles(const sched::ScheduledDfg& s, ControlStyle style);
/// As above, reusing a prebuilt engine (no schedule bookkeeping rebuild).
int bestCaseCycles(const MakespanEngine& engine, ControlStyle style);
int worstCaseCycles(const MakespanEngine& engine, ControlStyle style);

/// Exact Distributed makespan law: the frontier dynamic program, or the
/// Gray-code sweep when its frontier passes kFrontierStateCap.  Requires
/// <= kMaxExactTauOps TAU ops.
MakespanHistogram distributedHistogram(const MakespanEngine& engine);

/// The Gray-code sweep alone: all 2^n masks by single-flip delta
/// propagation, counted per chunk and merged (requires <= kMaxExactTauOps).
MakespanHistogram distributedHistogramGray(const MakespanEngine& engine);

/// Exact makespan law of one schedule under `style` (requires
/// <= kMaxExactTauOps TAU ops in either style).
MakespanHistogram makespanHistogram(const sched::ScheduledDfg& s,
                                    ControlStyle style);

/// Brute-force reference law: every one of the 2^n masks evaluated from a
/// freshly built OperandClasses vector (no sweep, no DP).  Kept for
/// cross-validation and benchmarking.
MakespanHistogram makespanHistogramReference(const sched::ScheduledDfg& s,
                                             const MakespanEngine& engine,
                                             ControlStyle style);

/// Expected cycles under i.i.d. Bernoulli(p) SD classes.  The shared
/// weighting function: equal histograms give bit-identical doubles.
double histogramAverageCycles(const MakespanHistogram& h, double p);

int histogramBestCycles(const MakespanHistogram& h);
int histogramWorstCycles(const MakespanHistogram& h);

/// Expected makespan (cycles): closed form for CentSync (any TAU count),
/// the weighted exact law for Distributed (requires <= 24 TAU ops).
double averageCyclesExact(const sched::ScheduledDfg& s, ControlStyle style,
                          double p);

/// As above, reusing a prebuilt engine (sweeps evaluate many P values per
/// schedule; building the engine once is the memoized fast path).
double averageCyclesExact(const sched::ScheduledDfg& s,
                          const MakespanEngine& engine, ControlStyle style,
                          double p);

/// Expected makespan for every P in `ps` at once.  The Distributed law does
/// not depend on P, so it is built a single time and reweighted per P --
/// each entry is bit-identical to the corresponding
/// averageCyclesExact(s, engine, style, ps[i]) call.
std::vector<double> averageCyclesExactSweep(const sched::ScheduledDfg& s,
                                            const MakespanEngine& engine,
                                            ControlStyle style,
                                            const std::vector<double>& ps);

/// Brute-force reference: makespanHistogramReference folded by
/// histogramAverageCycles.  averageCyclesExact is bit-identical to it for
/// the Distributed style and agrees to rounding for CentSync.
double averageCyclesExactReference(const sched::ScheduledDfg& s,
                                   const MakespanEngine& engine,
                                   ControlStyle style, double p);

/// Expected makespan (cycles) by Monte-Carlo sampling.
double averageCyclesMonteCarlo(const sched::ScheduledDfg& s, ControlStyle style,
                               double p, int samples, std::uint64_t seed = 1);

/// As above, reusing a prebuilt engine.
double averageCyclesMonteCarlo(const sched::ScheduledDfg& s,
                               const MakespanEngine& engine, ControlStyle style,
                               double p, int samples, std::uint64_t seed = 1);

/// One Table 2 row for one control style.
struct LatencyRow {
  double bestNs = 0.0;
  std::vector<double> averageNs;  ///< one entry per requested P
  double worstNs = 0.0;
};

/// Full Table 2 entry: LT_TAU (CentSync), LT_DIST (Distributed) and the
/// paper's enhancement percentages per P value.
struct LatencyComparison {
  std::vector<double> ps;
  LatencyRow tau;
  LatencyRow dist;
  std::vector<double> enhancementPercent;  ///< (tau - dist) / tau * 100, per P
};

/// A seeded confidence-interval Monte-Carlo estimate: mean cycles, the 95%
/// CI half-width around it, and how many samples were spent to get there.
struct McEstimate {
  double mean = 0.0;
  double halfWidth = 0.0;
  std::uint64_t samples = 0;
};

/// Crossover policy of compareLatencies.
struct LatencyOptions {
  /// TAU-op count up to which the Distributed column is exact; beyond it
  /// the adaptive Monte-Carlo estimator takes over.
  int exactCap = kMaxExactTauOps;
  /// First Monte-Carlo batch; rounds double from here.
  int mcSamples = 20000;
  /// Hard per-P sample ceiling (the estimator stops doubling here even if
  /// the target half-width is not reached).
  int mcMaxSamples = 1 << 20;
  /// Stop once the 95% CI half-width (in cycles) is at or below this.
  double mcTargetHalfWidth = 0.05;
  std::uint64_t mcSeed = 1;
};

/// Adaptive seeded Monte-Carlo: sample counts double until the 95% CI
/// half-width reaches `options.mcTargetHalfWidth` or `options.mcMaxSamples`
/// is hit.  Each round draws only its new samples [n_prev, n) and adds them
/// to the running moments; the moments are integer sums, exact in any
/// order, so the estimate equals a from-scratch pass over [0, n) bit for
/// bit, for any thread count.
McEstimate averageCyclesMonteCarloAdaptive(const sched::ScheduledDfg& s,
                                           const MakespanEngine& engine,
                                           ControlStyle style, double p,
                                           const LatencyOptions& options = {});

/// Compute the comparison with an exact<->MC crossover.  The CentSync row
/// is always closed-form exact; the Distributed row weights the exact law up
/// to `options.exactCap` (at most kMaxExactTauOps) TAU ops and uses the
/// confidence-interval Monte-Carlo estimator beyond it.  When `mcInfo` is
/// non-null it receives one entry per P (empty estimates when the exact path
/// ran).
LatencyComparison compareLatencies(const sched::ScheduledDfg& s,
                                   const std::vector<double>& ps,
                                   const LatencyOptions& options = {},
                                   std::vector<McEstimate>* mcInfo = nullptr);

}  // namespace tauhls::sim
