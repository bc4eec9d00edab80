// Kernel speed trajectory -- the per-PR tracked benchmark for the two
// super-linear kernels, each measured as a naive/optimized pair over the
// Table 2 suite:
//
//   equivalence   the end-to-end checkEquivalence suite (what `lint --equiv`
//                 runs per design) in the naive regime -- reference
//                 minimizer (logic::MinimizerImpl::Reference: scalar QM
//                 merge scans and per-offset-row expand trials) + Naive
//                 proof engine (fresh SAT solver + Tseitin encoding per
//                 miter) -- against the optimized regime: fast minimizer
//                 (sort+hash QM, 64-rows/word bit-parallel expand) +
//                 Incremental engine (simulation prefilter + shared
//                 incremental solver).  Two-level minimization dominates
//                 this suite's wall clock; the fast minimizer makes the
//                 same decisions in the same order, so covers, netlists,
//                 RTL, and every EQV verdict are identical across regimes
//                 (self-checked here).  The isolated proving kernel
//                 (verify::EquivWorkload) is also timed per engine and
//                 reported alongside.
//   sweep         the Distributed latency column, brute-force reference
//                 enumeration per P (one full makespan evaluation and two
//                 pow() calls per mask) against the shared Gray-code
//                 incremental sweep with SIMD delta propagation
//
// and emits BENCH_kernels.json:
//
//   "structural"  deterministic counts and the bit-identity verdicts
//                 (equivalence rule verdicts equal, sweep statistics
//                 EXPECT_EQ-equal).  Identical on every machine; CI diffs
//                 them against bench/baselines/BENCH_kernels.json via
//                 tools/compare_bench.py and fails on drift.
//   "timingsMs"   wall-clock per kernel and regime plus the speedups.
//                 Machine dependent; CI gates only the speedup floors.
//
// The bench self-checks both bit-identity claims and exits non-zero on any
// mismatch -- a fast optimized path that changes one verdict or statistic
// is a failure, not a trade-off.
//
//   kernel_speed [--json FILE]
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/simd.hpp"
#include "core/pipeline.hpp"
#include "dfg/benchmarks.hpp"
#include "logic/minimize.hpp"
#include "sched/scheduled_dfg.hpp"
#include "sim/stats.hpp"
#include "tau/library.hpp"
#include "verify/equiv_check.hpp"

namespace {

using namespace tauhls;

std::vector<std::tuple<std::string, std::string, std::string>> verdictsOf(
    const verify::Report& report) {
  std::vector<std::tuple<std::string, std::string, std::string>> out;
  for (const auto& d : report.diagnostics()) {
    out.emplace_back(d.code, d.artifact, d.where);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: kernel_speed [--json FILE]\n";
      return 2;
    }
  }

  bench::banner("Kernel speed (naive vs optimized, bit-identity enforced)");
  std::cout << "SIMD backend: " << common::simd::backendName() << "\n";

  const auto suite = dfg::paperTable2Suite();
  bool ok = true;

  // --- equivalence kernel --------------------------------------------------
  std::vector<fsm::DistributedControlUnit> dcus;
  for (const dfg::NamedBenchmark& b : suite) {
    core::FlowConfig cfg;
    cfg.allocation = b.allocation;
    core::FlowPipeline pipeline(b.graph, cfg);
    dcus.push_back(pipeline.get<fsm::DistributedControlUnit>(
        core::Artifact::Distributed));
  }

  verify::EquivOptions naiveOptions;
  naiveOptions.engine = verify::EquivEngine::Naive;
  verify::EquivOptions incOptions;
  incOptions.engine = verify::EquivEngine::Incremental;

  // End-to-end suite, naive regime: scalar reference minimizer + fresh
  // solver per miter.
  logic::setMinimizerImpl(logic::MinimizerImpl::Reference);
  std::vector<verify::Report> naiveReports;
  const auto tNaive = std::chrono::steady_clock::now();
  for (const auto& dcu : dcus) {
    naiveReports.push_back(verify::checkEquivalence(dcu, naiveOptions));
  }
  const double naiveEquivMs = bench::wallMs(tNaive);

  // Optimized regime: bit-parallel expand + incremental engine.
  logic::setMinimizerImpl(logic::MinimizerImpl::Fast);
  verify::EquivStats optStats;
  std::vector<verify::Report> optReports;
  const auto tOpt = std::chrono::steady_clock::now();
  for (const auto& dcu : dcus) {
    verify::EquivStats stats;
    optReports.push_back(verify::checkEquivalence(dcu, incOptions, &stats));
    optStats += stats;
  }
  const double optEquivMs = bench::wallMs(tOpt);

  for (std::size_t i = 0; i < dcus.size(); ++i) {
    if (verdictsOf(optReports[i]) != verdictsOf(naiveReports[i])) {
      std::cerr << "FAIL: regime verdicts diverge on " << suite[i].name
                << "\n";
      ok = false;
    }
  }

  // Isolated proving kernel: contexts and function pairs prebuilt
  // (untimed), several rounds per engine for a stable measurement.
  std::vector<std::unique_ptr<verify::EquivWorkload>> workloads;
  int kernelPairs = 0;
  for (const auto& dcu : dcus) {
    workloads.push_back(
        std::make_unique<verify::EquivWorkload>(dcu, incOptions));
    kernelPairs += workloads.back()->pairs();
  }
  constexpr int kRounds = 5;
  std::vector<verify::EquivWorkload::Verdicts> kernelVerdicts;
  const auto tKernelNaive = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const auto v = workloads[i]->prove(naiveOptions);
      if (round == 0) kernelVerdicts.push_back(v);
    }
  }
  const double kernelNaiveMs = bench::wallMs(tKernelNaive) / kRounds;

  verify::EquivStats kernelStats;
  const auto tKernelOpt = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      verify::EquivStats stats;
      const auto v = workloads[i]->prove(incOptions, &stats);
      if (round == 0) {
        kernelStats += stats;
        if (!(v == kernelVerdicts[i])) {
          std::cerr << "FAIL: kernel verdicts diverge on " << suite[i].name
                    << "\n";
          ok = false;
        }
      }
    }
  }
  const double kernelOptMs = bench::wallMs(tKernelOpt) / kRounds;

  std::uint64_t simDischarged = 0;
  std::uint64_t satQueries = 0;
  for (const auto& [code, cost] : kernelStats.ruleCost) {
    simDischarged += cost.simDischarged;
    satQueries += cost.queries;
  }
  const double equivSpeedup =
      optEquivMs > 0.0 ? naiveEquivMs / optEquivMs : 0.0;
  std::cout << "equivalence: naive " << bench::fixed(naiveEquivMs, 3)
            << " ms, optimized " << bench::fixed(optEquivMs, 3) << " ms ("
            << bench::fixed(equivSpeedup, 3) << "x) end to end; proving kernel "
            << bench::fixed(kernelNaiveMs, 3) << " -> "
            << bench::fixed(kernelOptMs, 3) << " ms over " << kernelPairs
            << " pairs, " << simDischarged << " sim-discharged, "
            << satQueries << " SAT queries\n";

  // --- distributed Gray-code sweep kernel ----------------------------------
  const std::vector<double> ps = {0.9, 0.7, 0.5};
  std::vector<sched::ScheduledDfg> schedules;
  for (const dfg::NamedBenchmark& b : suite) {
    schedules.push_back(
        sched::scheduleAndBind(b.graph, b.allocation, tau::paperLibrary()));
  }
  int totalTauOps = 0;
  std::vector<std::vector<double>> referenceCycles;
  const auto tRef = std::chrono::steady_clock::now();
  for (const sched::ScheduledDfg& s : schedules) {
    const sim::MakespanEngine engine(s);
    totalTauOps += engine.numTauOps();
    std::vector<double> cycles;
    for (const double p : ps) {
      cycles.push_back(sim::averageCyclesExactReference(
          s, engine, sim::ControlStyle::Distributed, p));
    }
    referenceCycles.push_back(std::move(cycles));
  }
  const double naiveSweepMs = bench::wallMs(tRef);

  std::vector<std::vector<double>> sweepCycles;
  const auto tSweep = std::chrono::steady_clock::now();
  for (const sched::ScheduledDfg& s : schedules) {
    const sim::MakespanEngine engine(s);
    sweepCycles.push_back(sim::averageCyclesExactSweep(
        s, engine, sim::ControlStyle::Distributed, ps));
  }
  const double optSweepMs = bench::wallMs(tSweep);

  bool sweepIdentical = true;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    for (std::size_t j = 0; j < ps.size(); ++j) {
      if (sweepCycles[i][j] != referenceCycles[i][j]) {
        std::cerr << "FAIL: sweep statistic differs on " << suite[i].name
                  << " p=" << ps[j] << "\n";
        sweepIdentical = false;
        ok = false;
      }
    }
  }
  const double sweepSpeedup =
      optSweepMs > 0.0 ? naiveSweepMs / optSweepMs : 0.0;
  std::cout << "sweep:       naive " << bench::fixed(naiveSweepMs, 3)
            << " ms, optimized " << bench::fixed(optSweepMs, 3) << " ms ("
            << bench::fixed(sweepSpeedup, 3) << "x), " << totalTauOps
            << " TAU ops across " << schedules.size() << " schedules\n";
  std::cout << "Bit-identity: " << (ok ? "OK" : "FAILED") << "\n";

  std::size_t controllers = 0;
  for (const auto& dcu : dcus) controllers += dcu.controllers.size();
  JsonWriter w;
  w.beginObject();
  w.key("schema").value("tauhls-bench-kernels");
  w.key("version").value(1);
  w.key("simdBackend").value(common::simd::backendName());
  w.key("structural").beginObject();
  w.key("benchmarks").value(suite.size());
  w.key("controllers").value(controllers);
  w.key("kernelPairs").value(kernelPairs);
  w.key("functionsCompared").value(optStats.functionsCompared);
  w.key("verdictsMatch").value(ok && sweepIdentical ? 1 : 0);
  w.key("sweepBitIdentical").value(sweepIdentical ? 1 : 0);
  w.key("sweepPoints").value(schedules.size() * ps.size());
  w.key("totalTauOps").value(totalTauOps);
  w.endObject();
  w.key("timingsMs").beginObject();
  w.key("equivalence").beginObject();
  w.key("naive").fixed(naiveEquivMs);
  w.key("optimized").fixed(optEquivMs);
  w.key("speedup").fixed(equivSpeedup);
  w.key("provingKernelNaive").fixed(kernelNaiveMs);
  w.key("provingKernelOptimized").fixed(kernelOptMs);
  w.endObject();
  w.key("sweep").beginObject();
  w.key("naive").fixed(naiveSweepMs);
  w.key("optimized").fixed(optSweepMs);
  w.key("speedup").fixed(sweepSpeedup);
  w.endObject();
  w.endObject();
  w.endObject();
  if (!bench::writeJson(jsonPath, w)) return 1;
  return ok ? 0 : 1;
}
