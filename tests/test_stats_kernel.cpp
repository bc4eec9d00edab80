// Property tests for the rebuilt latency-statistics kernel: the closed-form
// CentSync expectation against full enumeration, the frontier DP, Gray-code
// sweep and brute-force makespan laws against each other (bucket for
// bucket), the exact means against the brute-force reference (bit-identical,
// at any thread count), the mask-native engine API against the
// OperandClasses path, the 24-TAU-op exact cap, and the partial-engine
// sampler against std::mt19937_64 + std::bernoulli_distribution.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "sched/region_schedule.hpp"
#include "sim/distribution.hpp"
#include "sim/stats.hpp"
#include "tau/library.hpp"
#include "testutil.hpp"

namespace tauhls {
namespace {

using dfg::ResourceClass;
using sched::Allocation;
using sched::ScheduledDfg;

class GlobalThreadCountGuard {
 public:
  ~GlobalThreadCountGuard() {
    common::setGlobalThreadCount(common::configuredThreadCount());
  }
};

std::vector<ScheduledDfg> paperBenchmarks() {
  std::vector<ScheduledDfg> out;
  out.push_back(sched::scheduleAndBind(
      dfg::diffeq(),
      Allocation{{ResourceClass::Multiplier, 2},
                 {ResourceClass::Adder, 1},
                 {ResourceClass::Subtractor, 1}},
      tau::paperLibrary()));
  out.push_back(sched::scheduleAndBind(
      dfg::fir(3),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary()));
  out.push_back(sched::scheduleAndBind(
      dfg::fir(5),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary()));
  out.push_back(sched::scheduleAndBind(
      dfg::arLattice(),
      Allocation{{ResourceClass::Multiplier, 4}, {ResourceClass::Adder, 2}},
      tau::paperLibrary()));
  return out;
}

/// A schedule with `n` TAU ops (independent multiplications on 3 units).
ScheduledDfg manyTauSchedule(int n) {
  return sched::scheduleAndBind(test::parallelMuls(n),
                                Allocation{{ResourceClass::Multiplier, 3}},
                                tau::paperLibrary());
}

// (a) Closed-form sync expectation equals the enumerated expectation on every
// paper benchmark, across the whole P range including both degenerate ends.
TEST(StatsKernel, ClosedFormSyncMatchesEnumeration) {
  for (const ScheduledDfg& s : paperBenchmarks()) {
    const sim::MakespanEngine engine(s);
    for (double p : {0.0, 0.25, 0.5, 0.9, 1.0}) {
      const double closed =
          sim::averageCyclesExact(s, engine, sim::ControlStyle::CentSync, p);
      const double enumerated = sim::averageCyclesExactReference(
          s, engine, sim::ControlStyle::CentSync, p);
      EXPECT_NEAR(closed, enumerated, 1e-9)
          << s.graph.name() << " p=" << p;
    }
  }
}

// --- exact makespan laws ---------------------------------------------------

/// The frontier DP (unless `expectFallback`), the Gray-code sweep and the
/// brute-force reference give the same Distributed law bucket for bucket,
/// distributedHistogram returns it, and makespanHistogram's CentSync law
/// equals its brute-force law.
void expectLawsAgree(const ScheduledDfg& s, const std::string& label,
                     bool expectFallback = false) {
  const sim::MakespanEngine engine(s);
  const sim::MakespanHistogram brute = sim::makespanHistogramReference(
      s, engine, sim::ControlStyle::Distributed);
  const sim::MakespanHistogram gray = sim::distributedHistogramGray(engine);
  EXPECT_EQ(gray.tauCount, brute.tauCount) << label;
  EXPECT_EQ(gray.buckets, brute.buckets) << label;
  const std::optional<sim::MakespanHistogram> dp = engine.frontierHistogram();
  ASSERT_EQ(dp.has_value(), !expectFallback) << label;
  if (dp) {
    EXPECT_EQ(dp->tauCount, brute.tauCount) << label;
    EXPECT_EQ(dp->buckets, brute.buckets) << label;
  }
  EXPECT_EQ(sim::distributedHistogram(engine).buckets, brute.buckets) << label;

  const sim::MakespanHistogram sync =
      sim::makespanHistogram(s, sim::ControlStyle::CentSync);
  const sim::MakespanHistogram syncBrute =
      sim::makespanHistogramReference(s, engine, sim::ControlStyle::CentSync);
  EXPECT_EQ(sync.tauCount, syncBrute.tauCount) << label;
  EXPECT_EQ(sync.buckets, syncBrute.buckets) << label;
}

TEST(MakespanLaw, EnginesAgreeOnTable2Designs) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    expectLawsAgree(
        sched::scheduleAndBind(b.graph, b.allocation, tau::paperLibrary()),
        b.name);
  }
}

TEST(MakespanLaw, EnginesAgreeOnRegionLeavesAndFlatSchedules) {
  const dfg::RegionProgram p = dfg::firIirLoop();
  for (sched::BindingStrategy strategy :
       {sched::BindingStrategy::LeftEdge, sched::BindingStrategy::CliqueCover}) {
    const sched::RegionSchedule rs = sched::scheduleRegions(
        p, dfg::firIirLoopAllocation(), tau::paperLibrary(), strategy);
    for (const auto& [path, leaf] : rs.leaves) expectLawsAgree(leaf, path);
    for (bool thenBranch : {true, false}) {
      expectLawsAgree(sched::flattenScheduled(rs, {{"s3", thenBranch}}),
                      thenBranch ? "flat/then" : "flat/else");
    }
  }
}

TEST(MakespanLaw, EnginesAgreeOnLayeredRandomGraphs) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    dfg::RandomDfgSpec spec;
    spec.seed = seed;
    spec.numLayers = 3 + static_cast<int>(seed % 5);  // 12..28 ops
    spec.layerWidth = 4;
    spec.mulPermille = 600;
    const ScheduledDfg s = sched::scheduleAndBind(
        dfg::randomDfg(spec),
        Allocation{{ResourceClass::Multiplier, 2},
                   {ResourceClass::Adder, 1},
                   {ResourceClass::Subtractor, 1}},
        tau::paperLibrary());
    // 18 TAU ops keep the brute-force reference at most 2^18 masks.
    if (sim::MakespanEngine(s).numTauOps() > 18) continue;
    expectLawsAgree(s, "seed " + std::to_string(seed));
    ++checked;
  }
  EXPECT_GE(checked, 50);
}

// Sixteen parallel multiplications on sixteen units, all read by one adder
// chain: after the last multiplication the frontier holds 2^16 distinct
// ready-cycle tuples, past kFrontierStateCap, so the DP gives up and the
// Gray-code sweep fills the law.
TEST(MakespanLaw, FallbackPastTheStateCapGivesTheSameLaw) {
  constexpr int kMuls = 16;
  dfg::Dfg g("wide_fanin");
  std::vector<dfg::NodeId> products;
  for (int i = 0; i < kMuls; ++i) {
    const dfg::NodeId a = g.addInput("a" + std::to_string(i));
    const dfg::NodeId b = g.addInput("b" + std::to_string(i));
    products.push_back(
        g.addOp(dfg::OpKind::Mul, {a, b}, "m" + std::to_string(i)));
  }
  dfg::NodeId sum = products[0];
  for (int i = 1; i < kMuls; ++i) {
    sum = g.addOp(dfg::OpKind::Add, {sum, products[static_cast<std::size_t>(i)]},
                  "s" + std::to_string(i));
  }
  g.markOutput(sum);
  const ScheduledDfg s = sched::scheduleAndBind(
      g,
      Allocation{{ResourceClass::Multiplier, kMuls}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  ASSERT_EQ(sim::MakespanEngine(s).numTauOps(), kMuls);
  expectLawsAgree(s, "wide_fanin", /*expectFallback=*/true);
}

// Both styles' exact laws keep the 24-TAU-op cap: past it the law-based
// entry points refuse instead of enumerating 2^n masks (at 70 ops the counts
// would not even fit 64 bits).  Only the CentSync expectation is uncapped.
TEST(MakespanLaw, ExactLawsRefusePastTheCap) {
  for (int n : {sim::kMaxExactTauOps + 1, 70}) {
    const ScheduledDfg s = manyTauSchedule(n);
    for (sim::ControlStyle style :
         {sim::ControlStyle::Distributed, sim::ControlStyle::CentSync}) {
      EXPECT_THROW(sim::makespanHistogram(s, style), Error) << n;
      EXPECT_THROW(sim::latencyDistribution(s, style, 0.5), Error) << n;
    }
  }
}

// (b) The exact mean reproduces the brute-force reference EXACTLY (equal
// integer laws folded by the one weighting function), at every thread count.
TEST(StatsKernel, GrayCodeSweepBitIdenticalToReference) {
  GlobalThreadCountGuard guard;
  for (const ScheduledDfg& s : paperBenchmarks()) {
    const sim::MakespanEngine engine(s);
    for (double p : {0.25, 0.7}) {
      for (int threads : {1, 2, 8}) {
        common::setGlobalThreadCount(threads);
        EXPECT_EQ(
            sim::averageCyclesExact(s, engine, sim::ControlStyle::Distributed,
                                    p),
            sim::averageCyclesExactReference(
                s, engine, sim::ControlStyle::Distributed, p))
            << s.graph.name() << " p=" << p << " threads=" << threads;
      }
    }
  }
}

// The shared-enumeration P-sweep returns, entry for entry, exactly what the
// standalone per-P calls return -- for both styles, at every thread count.
TEST(StatsKernel, SweepMatchesPerPointCallsBitForBit) {
  GlobalThreadCountGuard guard;
  const std::vector<double> ps = {1.0, 0.9, 0.7, 0.5, 0.25, 0.0};
  for (const ScheduledDfg& s : paperBenchmarks()) {
    const sim::MakespanEngine engine(s);
    for (sim::ControlStyle style :
         {sim::ControlStyle::Distributed, sim::ControlStyle::CentSync}) {
      for (int threads : {1, 2, 8}) {
        common::setGlobalThreadCount(threads);
        const std::vector<double> swept =
            sim::averageCyclesExactSweep(s, engine, style, ps);
        ASSERT_EQ(swept.size(), ps.size());
        for (std::size_t i = 0; i < ps.size(); ++i) {
          EXPECT_EQ(swept[i],
                    sim::averageCyclesExact(s, engine, style, ps[i]))
              << s.graph.name() << " p=" << ps[i] << " threads=" << threads;
        }
      }
    }
  }
}

// The mask-native evaluation path agrees with the OperandClasses path on
// every assignment, and maskOf inverts fromMask.
TEST(StatsKernel, MaskApiMatchesClassesApi) {
  for (const ScheduledDfg& s : paperBenchmarks()) {
    const sim::MakespanEngine engine(s);
    const int n = engine.numTauOps();
    if (n > 12) continue;  // exhaustive check only for small designs
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
      const sim::OperandClasses classes = sim::fromMask(s, mask);
      EXPECT_EQ(engine.maskOf(classes), mask);
      EXPECT_EQ(engine.distributedCycles(mask),
                engine.distributedCycles(classes))
          << s.graph.name() << " mask=" << mask;
      EXPECT_EQ(engine.syncCycles(mask), engine.syncCycles(classes))
          << s.graph.name() << " mask=" << mask;
    }
  }
}

// Incremental flipTau delta propagation never drifts from a from-scratch
// evaluation, across a full Gray-code tour of the diffeq mask space.
TEST(StatsKernel, IncrementalFlipMatchesFullEvaluation) {
  const ScheduledDfg s = paperBenchmarks().front();
  const sim::MakespanEngine engine(s);
  const int n = engine.numTauOps();
  sim::MakespanEngine::DistributedSweep sweep(engine);
  sweep.evalFull(0);
  for (std::uint64_t o = 1; o < (std::uint64_t{1} << n); ++o) {
    const int incremental = sweep.flipTau(std::countr_zero(o));
    EXPECT_EQ(incremental, engine.distributedCycles(sweep.mask()))
        << "mask=" << sweep.mask();
  }
}

// (c) The raised cap: a 22-TAU-op design enumerates exactly (the old 20-op
// cap rejected it), degenerate P hits the extremes exactly, and Monte-Carlo
// cross-validates the enumerated expectation.
TEST(StatsKernel, ExactEnumerationHandles22TauOps) {
  const ScheduledDfg s = manyTauSchedule(22);
  const sim::MakespanEngine engine(s);
  ASSERT_EQ(engine.numTauOps(), 22);
  ASSERT_GT(engine.numTauOps(), 20);  // beyond the old cap

  const int best = sim::bestCaseCycles(engine, sim::ControlStyle::Distributed);
  const int worst =
      sim::worstCaseCycles(engine, sim::ControlStyle::Distributed);
  EXPECT_EQ(sim::averageCyclesExact(s, engine, sim::ControlStyle::Distributed,
                                    1.0),
            best);
  EXPECT_EQ(sim::averageCyclesExact(s, engine, sim::ControlStyle::Distributed,
                                    0.0),
            worst);

  const double avg =
      sim::averageCyclesExact(s, engine, sim::ControlStyle::Distributed, 0.7);
  EXPECT_GE(avg, best);
  EXPECT_LE(avg, worst);
  const double mc = sim::averageCyclesMonteCarlo(
      s, engine, sim::ControlStyle::Distributed, 0.7, 20000, 42);
  EXPECT_NEAR(mc, avg, 0.05);
}

// Beyond the 24-op cap the Distributed enumeration refuses, while the
// closed-form CentSync expectation keeps working at any TAU count.
TEST(StatsKernel, SyncColumnHasNoCap) {
  const ScheduledDfg s = manyTauSchedule(25);
  const sim::MakespanEngine engine(s);
  ASSERT_GT(engine.numTauOps(), sim::kMaxExactTauOps);
  EXPECT_THROW(
      sim::averageCyclesExact(s, engine, sim::ControlStyle::Distributed, 0.5),
      Error);

  const double avg =
      sim::averageCyclesExact(s, engine, sim::ControlStyle::CentSync, 0.5);
  EXPECT_GE(avg, sim::bestCaseCycles(engine, sim::ControlStyle::CentSync));
  EXPECT_LE(avg, sim::worstCaseCycles(engine, sim::ControlStyle::CentSync));
  EXPECT_EQ(
      sim::averageCyclesExact(s, engine, sim::ControlStyle::CentSync, 1.0),
      sim::bestCaseCycles(engine, sim::ControlStyle::CentSync));
  EXPECT_EQ(
      sim::averageCyclesExact(s, engine, sim::ControlStyle::CentSync, 0.0),
      sim::worstCaseCycles(engine, sim::ControlStyle::CentSync));
}

/// Replays recorded std::mt19937_64 outputs, so one engine run per seed
/// feeds std::bernoulli_distribution at every P (each draw consumes exactly
/// one engine output).
struct ReplayEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() { return *next++; }
  const std::uint64_t* next;
};

// The partial-engine mask sampler draws exactly what std::mt19937_64 fed to
// std::bernoulli_distribution draws: every width, both degenerate P values,
// the largest P below 1 (where the canonical draw's clamp matters) and 10^5
// seeds, small counter seeds and scattered 64-bit ones alike.
TEST(StatsKernel, MaskSamplerMatchesStdEngine) {
  const double ps[] = {0.0, 1.0, 0.5, 0.7, 0.9, std::nextafter(1.0, 0.0)};
  const int widths[] = {0, 1, 24, 28, 64};
  int mismatches = 0;
  std::uint64_t outputs[64];
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const std::uint64_t seed = i % 2 == 0 ? i : i * 0x9E3779B97F4A7C15ull;
    std::mt19937_64 engine(seed);
    for (std::uint64_t& w : outputs) w = engine();
    for (const double p : ps) {
      ReplayEngine rng{outputs};
      std::bernoulli_distribution sd(p);
      std::uint64_t expected = 0;
      for (int b = 0; b < 64; ++b) {
        if (sd(rng)) expected |= std::uint64_t{1} << b;
      }
      for (const int n : widths) {
        const std::uint64_t prefix =
            n == 64 ? expected : expected & ((std::uint64_t{1} << n) - 1);
        if (sim::randomClassMask(n, p, seed) != prefix) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Past the partial engine's reach (more draws than it can serve) the class
// sampler still draws the std sequence.
TEST(StatsKernel, ClassSamplerMatchesStdEngineOnWideDesigns) {
  const ScheduledDfg s = manyTauSchedule(160);
  const std::vector<dfg::NodeId> taus = sim::tauOps(s);
  ASSERT_EQ(taus.size(), 160u);
  for (std::uint64_t seed : {1ull, 7ull, 0xDEADBEEFull}) {
    const sim::OperandClasses classes = sim::randomClasses(s, 0.6, seed);
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution sd(0.6);
    for (dfg::NodeId v : taus) {
      EXPECT_EQ(classes.isShort(v), sd(rng)) << "seed=" << seed << " v=" << v;
    }
  }
}

// The buffered randomClasses overload and the mask sampler draw the very same
// Bernoulli sequence as the allocating overload.
TEST(StatsKernel, RandomSamplersAgreeBitForBit) {
  // diffeq, and a design past the 24-op exact cap that Monte-Carlo samples.
  for (const ScheduledDfg& s : {paperBenchmarks().front(), manyTauSchedule(28)}) {
    const std::vector<dfg::NodeId> taus = sim::tauOps(s);
    sim::OperandClasses buffered;
    for (const double p : {0.7, 0.5, std::nextafter(1.0, 0.0)}) {
      for (std::uint64_t seed : {1ull, 42ull, 1234567ull}) {
        const sim::OperandClasses fresh = sim::randomClasses(s, p, seed);
        sim::randomClasses(s, taus, p, seed, buffered);
        EXPECT_EQ(fresh.shortClass, buffered.shortClass) << "seed=" << seed;
        const std::uint64_t mask =
            sim::randomClassMask(static_cast<int>(taus.size()), p, seed);
        for (std::size_t i = 0; i < taus.size(); ++i) {
          EXPECT_EQ((mask >> i) & 1, fresh.shortClass[taus[i]] ? 1u : 0u)
              << "seed=" << seed << " p=" << p << " tau=" << i;
        }
      }
    }
  }
}

// --- adaptive exact<->MC crossover ----------------------------------------

// With default options and a graph under the exact cap, compareLatencies
// takes the exact path: its cells are the exact Distributed sweep and the
// closed-form CentSync expectation bit for bit, and no Monte-Carlo sample is
// spent.
TEST(StatsKernel, AdaptiveCompareLatenciesBitIdenticalUnderCap) {
  const std::vector<double> ps = {0.9, 0.7, 0.5};
  for (const ScheduledDfg& s : paperBenchmarks()) {
    const sim::MakespanEngine engine(s);
    const std::vector<double> distCycles = sim::averageCyclesExactSweep(
        s, engine, sim::ControlStyle::Distributed, ps);
    std::vector<sim::McEstimate> info;
    const sim::LatencyComparison adaptive =
        sim::compareLatencies(s, ps, sim::LatencyOptions{}, &info);
    ASSERT_EQ(info.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const double tau = engine.syncExpectedCycles(ps[i]) * s.clockNs;
      const double dist = distCycles[i] * s.clockNs;
      EXPECT_EQ(adaptive.tau.averageNs[i], tau);
      EXPECT_EQ(adaptive.dist.averageNs[i], dist);
      EXPECT_EQ(adaptive.enhancementPercent[i], (tau - dist) / tau * 100.0);
      EXPECT_EQ(info[i].samples, 0u);  // the exact path ran, no MC spent
    }
    EXPECT_EQ(adaptive.dist.bestNs,
              engine.bestDistributedCycles() * s.clockNs);
    EXPECT_EQ(adaptive.dist.worstNs,
              engine.worstDistributedCycles() * s.clockNs);
  }
}

// A lowered exact cap forces the Monte-Carlo path on a graph whose exact
// value is still computable: the reported 95% confidence interval must
// cover the exact expectation, and the half-width must have reached the
// requested target (or exhausted the sample ceiling trying).
TEST(StatsKernel, McCrossoverIntervalCoversExactValue) {
  const ScheduledDfg s = manyTauSchedule(14);
  const sim::MakespanEngine engine(s);
  ASSERT_LE(engine.numTauOps(), sim::kMaxExactTauOps);
  for (const double p : {0.5, 0.8}) {
    const double exact =
        sim::averageCyclesExact(s, engine, sim::ControlStyle::Distributed, p);
    sim::LatencyOptions options;
    options.exactCap = 10;  // below the 14 TAU ops: forces MC
    options.mcSamples = 4000;
    options.mcTargetHalfWidth = 0.02;
    const sim::McEstimate est = sim::averageCyclesMonteCarloAdaptive(
        s, engine, sim::ControlStyle::Distributed, p, options);
    EXPECT_GE(est.samples, 4000u);
    EXPECT_TRUE(est.halfWidth <= options.mcTargetHalfWidth ||
                est.samples >=
                    static_cast<std::uint64_t>(options.mcMaxSamples));
    // Seeded and deterministic, so a covering interval stays covering.
    EXPECT_NEAR(est.mean, exact, 2.0 * est.halfWidth)
        << "p=" << p << " samples=" << est.samples;
  }
}

// The adaptive estimator is bit-identical across thread counts (counter
// seeds + integer moments, exact whatever the chunk grid).
TEST(StatsKernel, AdaptiveMcDeterministicAcrossThreads) {
  GlobalThreadCountGuard guard;
  const ScheduledDfg s = manyTauSchedule(14);
  const sim::MakespanEngine engine(s);
  sim::LatencyOptions options;
  options.exactCap = 10;
  options.mcSamples = 2000;
  options.mcTargetHalfWidth = 0.05;
  common::setGlobalThreadCount(1);
  const sim::McEstimate reference = sim::averageCyclesMonteCarloAdaptive(
      s, engine, sim::ControlStyle::Distributed, 0.7, options);
  for (const int threads : {2, 8}) {
    common::setGlobalThreadCount(threads);
    const sim::McEstimate est = sim::averageCyclesMonteCarloAdaptive(
        s, engine, sim::ControlStyle::Distributed, 0.7, options);
    EXPECT_EQ(est.mean, reference.mean) << "threads=" << threads;
    EXPECT_EQ(est.halfWidth, reference.halfWidth) << "threads=" << threads;
    EXPECT_EQ(est.samples, reference.samples) << "threads=" << threads;
  }
}

// The doubling rounds only draw their new samples: after at least three
// rounds the estimate still equals, bit for bit, one from-scratch pass over
// all the samples it spent -- at every thread count.
TEST(StatsKernel, AdaptiveMcRoundsExtendTheSameSamples) {
  GlobalThreadCountGuard guard;
  const ScheduledDfg s = manyTauSchedule(14);
  const sim::MakespanEngine engine(s);
  sim::LatencyOptions options;
  options.mcSamples = 500;
  options.mcTargetHalfWidth = 0.02;
  for (const int threads : {1, 2, 8}) {
    common::setGlobalThreadCount(threads);
    const sim::McEstimate est = sim::averageCyclesMonteCarloAdaptive(
        s, engine, sim::ControlStyle::Distributed, 0.7, options);
    ASSERT_GE(est.samples, 4u * 500u) << "fewer than three rounds";
    sim::LatencyOptions once = options;
    once.mcSamples = static_cast<int>(est.samples);
    once.mcTargetHalfWidth = 1e9;  // stop after the first round
    const sim::McEstimate scratch = sim::averageCyclesMonteCarloAdaptive(
        s, engine, sim::ControlStyle::Distributed, 0.7, once);
    EXPECT_EQ(est.mean, scratch.mean) << "threads=" << threads;
    EXPECT_EQ(est.halfWidth, scratch.halfWidth) << "threads=" << threads;
    EXPECT_EQ(est.samples, scratch.samples) << "threads=" << threads;
  }
}

// Past the hard 24-op enumeration cap the adaptive crossover no longer
// throws (the legacy fixed-sample path is the only alternative there): the
// column comes back seeded-MC with finite CI info.
TEST(StatsKernel, AdaptiveCrossoverHandlesGraphsPastTheHardCap) {
  const ScheduledDfg s = manyTauSchedule(25);
  const sim::MakespanEngine engine(s);
  ASSERT_GT(engine.numTauOps(), sim::kMaxExactTauOps);
  sim::LatencyOptions options;
  options.mcSamples = 2000;
  options.mcTargetHalfWidth = 0.05;
  std::vector<sim::McEstimate> info;
  const sim::LatencyComparison out =
      sim::compareLatencies(s, {0.9, 0.5}, options, &info);
  ASSERT_EQ(info.size(), 2u);
  for (std::size_t i = 0; i < info.size(); ++i) {
    EXPECT_GT(info[i].samples, 0u);
    EXPECT_GT(info[i].halfWidth, 0.0);
    EXPECT_GE(out.dist.averageNs[i],
              out.dist.bestNs - 1e-9);
    EXPECT_LE(out.dist.averageNs[i],
              out.dist.worstNs + 1e-9);
  }
}

}  // namespace
}  // namespace tauhls
