// google-benchmark micro suite: hot paths of the tool itself (makespan
// evaluation, exact latency statistics, controller generation, product
// construction, logic minimization), so tool performance regressions are
// visible alongside the paper-table benches.
#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "common/parallel.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/product.hpp"
#include "logic/minimize.hpp"
#include "sim/interp.hpp"
#include "sim/stats.hpp"
#include "synth/extract.hpp"

namespace {

using namespace tauhls;

sched::ScheduledDfg diffeqScheduled() {
  return sched::scheduleAndBind(dfg::diffeq(),
                                {{dfg::ResourceClass::Multiplier, 2},
                                 {dfg::ResourceClass::Adder, 1},
                                 {dfg::ResourceClass::Subtractor, 1}},
                                tau::paperLibrary());
}

void BM_DistributedMakespan(benchmark::State& state) {
  const auto s = diffeqScheduled();
  const sim::MakespanEngine engine(s);
  const auto classes = sim::randomClasses(s, 0.5, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.distributedCycles(classes));
  }
}
BENCHMARK(BM_DistributedMakespan);

void BM_ExactAverageDiffeq(benchmark::State& state) {
  const auto s = diffeqScheduled();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::averageCyclesExact(s, sim::ControlStyle::Distributed, 0.5));
  }
}
BENCHMARK(BM_ExactAverageDiffeq);

void BM_ExactAverageArLattice(benchmark::State& state) {
  const auto s = sched::scheduleAndBind(dfg::arLattice(),
                                        {{dfg::ResourceClass::Multiplier, 4},
                                         {dfg::ResourceClass::Adder, 2}},
                                        tau::paperLibrary());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::averageCyclesExact(s, sim::ControlStyle::Distributed, 0.5));
  }
}
BENCHMARK(BM_ExactAverageArLattice)->Unit(benchmark::kMillisecond);

// The parallel experiment engine on the exact-enumeration hot path: the same
// AR-lattice sweep as BM_ExactAverageArLattice, at 1/2/4/8 worker threads
// (Arg).  Thread-count-independent bit-identical results are asserted by
// tests/test_parallel.cpp; this measures the speedup.
void BM_ParallelExactAverage(benchmark::State& state) {
  const auto s = sched::scheduleAndBind(dfg::arLattice(),
                                        {{dfg::ResourceClass::Multiplier, 4},
                                         {dfg::ResourceClass::Adder, 2}},
                                        tau::paperLibrary());
  const sim::MakespanEngine engine(s);
  common::setGlobalThreadCount(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::averageCyclesExact(s, engine, sim::ControlStyle::Distributed, 0.5));
  }
  state.SetLabel(std::to_string(state.range(0)) + " threads");
  common::setGlobalThreadCount(common::configuredThreadCount());
}
BENCHMARK(BM_ParallelExactAverage)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

sched::ScheduledDfg fir5Scheduled() {
  return sched::scheduleAndBind(dfg::fir(5),
                                {{dfg::ResourceClass::Multiplier, 2},
                                 {dfg::ResourceClass::Adder, 1}},
                                tau::paperLibrary());
}

// Naive-vs-production pair on the 5th-order FIR exact sweep over Table 2's
// P column {0.9, 0.7, 0.5}, single thread: the brute-force reference
// re-evaluates every mask from scratch per P with a heap-allocated class
// vector; the production path builds the exact makespan law once (frontier
// DP) and weights it per P.  The ratio of these two is the single-thread
// algorithmic speedup of this kernel.
void BM_NaiveExactAverageFir5(benchmark::State& state) {
  const auto s = fir5Scheduled();
  const sim::MakespanEngine engine(s);
  common::setGlobalThreadCount(1);
  for (auto _ : state) {
    for (double p : {0.9, 0.7, 0.5}) {
      benchmark::DoNotOptimize(sim::averageCyclesExactReference(
          s, engine, sim::ControlStyle::Distributed, p));
    }
  }
  common::setGlobalThreadCount(common::configuredThreadCount());
}
BENCHMARK(BM_NaiveExactAverageFir5);

void BM_IncrementalExactAverageFir5(benchmark::State& state) {
  const auto s = fir5Scheduled();
  const sim::MakespanEngine engine(s);
  const std::vector<double> ps = {0.9, 0.7, 0.5};
  common::setGlobalThreadCount(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::averageCyclesExactSweep(
        s, engine, sim::ControlStyle::Distributed, ps));
  }
  common::setGlobalThreadCount(common::configuredThreadCount());
}
BENCHMARK(BM_IncrementalExactAverageFir5);

// The same pair on the AR lattice (16 TAU ops, the heaviest Table 2 entry);
// BM_IncrementalExactAverage is the headline number EXPERIMENTS.md tracks.
void BM_NaiveExactAverage(benchmark::State& state) {
  const auto s = sched::scheduleAndBind(dfg::arLattice(),
                                        {{dfg::ResourceClass::Multiplier, 4},
                                         {dfg::ResourceClass::Adder, 2}},
                                        tau::paperLibrary());
  const sim::MakespanEngine engine(s);
  common::setGlobalThreadCount(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::averageCyclesExactReference(
        s, engine, sim::ControlStyle::Distributed, 0.5));
  }
  common::setGlobalThreadCount(common::configuredThreadCount());
}
BENCHMARK(BM_NaiveExactAverage)->Unit(benchmark::kMillisecond);

void BM_IncrementalExactAverage(benchmark::State& state) {
  const auto s = sched::scheduleAndBind(dfg::arLattice(),
                                        {{dfg::ResourceClass::Multiplier, 4},
                                         {dfg::ResourceClass::Adder, 2}},
                                        tau::paperLibrary());
  const sim::MakespanEngine engine(s);
  common::setGlobalThreadCount(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::averageCyclesExact(
        s, engine, sim::ControlStyle::Distributed, 0.5));
  }
  common::setGlobalThreadCount(common::configuredThreadCount());
}
BENCHMARK(BM_IncrementalExactAverage)->Unit(benchmark::kMillisecond);

// The exact Distributed law of a 24-TAU-op layered random graph (9 layers of
// 4 ops, the largest design the exact path takes), built by the frontier DP
// and by the Gray-code sweep over all 2^24 masks, single thread.  Their
// ratio is the speedup of the DP over enumeration.
sched::ScheduledDfg layeredRandom24() {
  dfg::RandomDfgSpec spec;
  spec.seed = 4;
  spec.numLayers = 9;
  spec.layerWidth = 4;
  spec.mulPermille = 700;
  return sched::scheduleAndBind(dfg::randomDfg(spec),
                                {{dfg::ResourceClass::Multiplier, 2},
                                 {dfg::ResourceClass::Adder, 1},
                                 {dfg::ResourceClass::Subtractor, 1}},
                                tau::paperLibrary());
}

void BM_FrontierDpHistogram(benchmark::State& state) {
  const auto s = layeredRandom24();
  const sim::MakespanEngine engine(s);
  common::setGlobalThreadCount(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.frontierHistogram());
  }
  state.SetLabel(std::to_string(engine.numTauOps()) + " TAU ops");
  common::setGlobalThreadCount(common::configuredThreadCount());
}
BENCHMARK(BM_FrontierDpHistogram)->Unit(benchmark::kMillisecond);

void BM_GrayHistogram(benchmark::State& state) {
  const auto s = layeredRandom24();
  const sim::MakespanEngine engine(s);
  common::setGlobalThreadCount(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::distributedHistogramGray(engine));
  }
  state.SetLabel(std::to_string(engine.numTauOps()) + " TAU ops");
  common::setGlobalThreadCount(common::configuredThreadCount());
}
BENCHMARK(BM_GrayHistogram)->Unit(benchmark::kMillisecond);

// One Monte-Carlo mask of 28 TAU ops at P = 0.7: a std::mt19937_64 built
// and twisted per sample feeding std::bernoulli_distribution, against
// randomClassMask, which computes only the 28 engine outputs it needs.
constexpr int kSampledTauOps = 28;

void BM_SampleMaskStd(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    std::mt19937_64 rng(seed++);
    std::bernoulli_distribution sd(0.7);
    std::uint64_t mask = 0;
    for (int i = 0; i < kSampledTauOps; ++i) {
      if (sd(rng)) mask |= std::uint64_t{1} << i;
    }
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_SampleMaskStd);

void BM_SampleMask(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::randomClassMask(kSampledTauOps, 0.7, seed++));
  }
}
BENCHMARK(BM_SampleMask);

// Closed-form CentSync expectation: O(steps), so this stays flat no matter
// how many TAU ops the design has (the enumerated version was O(2^n)).
void BM_ClosedFormSyncAverage(benchmark::State& state) {
  const auto s = sched::scheduleAndBind(dfg::arLattice(),
                                        {{dfg::ResourceClass::Multiplier, 4},
                                         {dfg::ResourceClass::Adder, 2}},
                                        tau::paperLibrary());
  const sim::MakespanEngine engine(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::averageCyclesExact(s, engine, sim::ControlStyle::CentSync, 0.5));
  }
}
BENCHMARK(BM_ClosedFormSyncAverage);

void BM_BuildDistributed(benchmark::State& state) {
  const auto s = diffeqScheduled();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm::buildDistributed(s));
  }
}
BENCHMARK(BM_BuildDistributed);

void BM_BuildProduct(benchmark::State& state) {
  const auto s = diffeqScheduled();
  const auto dcu = fsm::buildDistributed(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm::buildProduct(dcu));
  }
}
BENCHMARK(BM_BuildProduct)->Unit(benchmark::kMillisecond);

void BM_FsmInterpreter(benchmark::State& state) {
  const auto s = diffeqScheduled();
  const auto dcu = fsm::buildDistributed(s);
  const auto classes = sim::randomClasses(s, 0.5, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runDistributed(dcu, s, classes));
  }
}
BENCHMARK(BM_FsmInterpreter);

// After its first iteration this times a synthesis-cache hit (structural
// key, lookup and copy), which is what every repeat consumer of a
// controller pays.  Cold synthesis is timed by BM_QmMinimize* here and by
// perfbench's synth.ms / synth.max_controller_ms layers.
void BM_SynthesizeCentSync(benchmark::State& state) {
  const auto s = diffeqScheduled();
  const auto sync = fsm::buildCentSync(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::synthesize(sync));
  }
}
BENCHMARK(BM_SynthesizeCentSync);

void BM_QmMinimize10Var(benchmark::State& state) {
  logic::TruthTable tt(10);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    tt.set(r, (x & 3) == 0   ? logic::Ternary::One
              : (x & 3) == 1 ? logic::Ternary::DontCare
                             : logic::Ternary::Zero);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::minimizeExact(tt));
  }
  state.SetLabel("random 10-var, 1/4 onset, 1/4 dc");
}
BENCHMARK(BM_QmMinimize10Var)->Unit(benchmark::kMillisecond);

// The controller-logic shape: a wide table whose function reads only a few
// of its variables, so QM runs on the 4-variable projection.
void BM_QmMinimizePlantedSupport(benchmark::State& state) {
  constexpr int kRead[] = {1, 5, 8, 12};
  logic::Ternary g[16];
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (logic::Ternary& t : g) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t = (x & 3) == 0   ? logic::Ternary::One
        : (x & 3) == 1 ? logic::Ternary::DontCare
                       : logic::Ternary::Zero;
  }
  logic::TruthTable tt(14);
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    std::uint64_t sub = 0;
    for (int i = 0; i < 4; ++i) sub |= ((r >> kRead[i]) & 1) << i;
    tt.set(r, g[sub]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::minimizeExact(tt));
  }
  state.SetLabel("14-var table reading 4 vars");
}
BENCHMARK(BM_QmMinimizePlantedSupport)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
