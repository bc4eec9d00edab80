// Ablation C -- sensitivity to the SD-hit ratio P (the paper evaluates only
// P = 0.9/0.7/0.5; this sweeps 0.05..0.95) plus the crossover against a
// conventional fixed-delay design clocked at CC = LD.
//
// The sweep doubles as the artifact-reuse study for the pass pipeline
// (core/pipeline.hpp): every (benchmark, P) cell is its own pipeline run
// against one shared cache, so the schedule, the controllers and the static
// verification of a benchmark are computed for its first P point and reused
// by the other ten -- only the latency pass re-runs per P.  The bench
// cross-checks every reported number against the monolithic-equivalent
// multi-P flow (bit-identical or exit 1), checks the schedule pass ran
// exactly once per benchmark (exit 1 otherwise; CI enforces the same on the
// exported trace), and times the cached sweep against the pre-pipeline
// equivalent (one full flow per P point) on one benchmark.
//
//   ablation_p_sweep [--trace-json FILE]   chrome://tracing pass trace
#include <chrono>
#include <fstream>
#include <sstream>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "sim/stats.hpp"
#include "tau/clocking.hpp"

int main(int argc, char** argv) {
  using namespace tauhls;
  std::string traceJsonPath;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace-json" && i + 1 < argc) {
      traceJsonPath = argv[++i];
    } else {
      std::cerr << "usage: ablation_p_sweep [--trace-json FILE]\n";
      return 2;
    }
  }

  bench::banner("Ablation C -- P sweep and the telescopic-vs-conventional "
                "crossover");

  const std::vector<double> ps = {0.95, 0.9, 0.8, 0.7, 0.6,
                                  0.5,  0.4, 0.3, 0.2, 0.1, 0.05};

  const auto suite = dfg::paperTable2Suite();
  auto perPointConfig = [&](std::size_t bi, double p) {
    core::FlowConfig cfg;
    cfg.allocation = suite[bi].allocation;
    cfg.ps = {p};
    cfg.synthesizeArea = false;
    return cfg;
  };

  // --- Cached sweep: 11 per-P pipeline runs per benchmark, shared cache ---
  // Benchmarks fan out over the pool; within a benchmark the P points run
  // serially so every point after the first reuses schedule + controllers +
  // verification from the cache and pays only for its latency pass.
  auto cache = std::make_shared<core::ArtifactCache>();
  std::vector<std::vector<sim::LatencyComparison>> cells(suite.size());
  std::vector<sched::ScheduledDfg> schedules(suite.size());
  std::vector<std::vector<core::TracedRun>> traces(suite.size());
  const auto sweepT0 = std::chrono::steady_clock::now();
  common::parallelFor(suite.size(), [&](std::size_t bi) {
    for (double p : ps) {
      core::FlowPipeline pipeline(suite[bi].graph, perPointConfig(bi, p),
                                  cache);
      const core::FlowResult r = pipeline.run();
      cells[bi].push_back(r.latency);
      if (cells[bi].size() == 1) schedules[bi] = r.scheduled;
      std::ostringstream runName;
      runName << suite[bi].name << "@P=" << p;
      traces[bi].push_back({runName.str(), pipeline.traceEvents()});
    }
  });
  const double sweepMs = bench::wallMs(sweepT0);

  for (std::size_t bi = 0; bi < suite.size(); ++bi) {
    const dfg::NamedBenchmark& b = suite[bi];

    // Conventional design: 1 cycle/op at CC = 20 ns.
    const double ccNs = tau::conventionalClockNs(tau::paperLibrary());
    const double conv =
        sim::bestCaseCycles(schedules[bi], sim::ControlStyle::Distributed) *
        ccNs;

    std::cout << "--- " << b.name << " (conventional @ CC=" << ccNs
              << "ns: " << bench::fixed(conv, 1) << " ns) ---\n";
    core::TextTable t({"P", "LT_TAU", "LT_DIST", "enh", "vs conventional"});
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const sim::LatencyComparison& cell = cells[bi][i];
      const double tau = cell.tau.averageNs[0];
      const double dist = cell.dist.averageNs[0];
      t.addRow({bench::fixed(ps[i], 1), bench::fixed(tau, 1),
                bench::fixed(dist, 1),
                bench::fixed(cell.enhancementPercent[0], 1) + "%",
                bench::fixed((conv - dist) / conv * 100.0, 1) + "%"});
    }
    std::cout << t.toString() << "\n";
  }
  std::cout << "Shape: the distributed win over sync-TAUBM peaks at "
               "mid-range P (at P=1 and in the all-LD limit both converge); "
               "the telescopic design beats the conventional clock whenever "
               "the average column stays below it -- the crossover P falls "
               "as designs get deeper.\n";
  std::cout << "Sweep wall time: " << bench::fixed(sweepMs, 1) << " ms on "
            << common::globalThreadPool().threadCount() << " threads.\n";

  // --- Pipeline accounting: the cache must have shared each benchmark's ---
  // schedule across all 11 P points.
  const core::CacheStats stats = cache->stats();
  std::cout << "Pipeline cache: " << core::formatCacheSummary(stats) << ".\n";
  const std::uint64_t scheduleRuns =
      stats.runsPerPass.count("schedule") ? stats.runsPerPass.at("schedule")
                                          : 0;
  std::cout << "Schedule pass runs: " << scheduleRuns << " for "
            << suite.size() << " benchmarks x " << ps.size()
            << " P points.\n";
  if (scheduleRuns > suite.size()) {
    std::cerr << "FAIL: schedule ran " << scheduleRuns
              << " times for " << suite.size()
              << " benchmarks -- artifact reuse is broken.\n";
    return 1;
  }

  // --- Bit-identity: every cell must match the monolithic-equivalent ---
  // multi-P flow (the pre-pipeline bench evaluated one flow per benchmark
  // with the full P list; per-P enumeration through the cache must not
  // change a single bit).
  std::size_t checked = 0;
  for (std::size_t bi = 0; bi < suite.size(); ++bi) {
    core::FlowConfig cfg;
    cfg.allocation = suite[bi].allocation;
    cfg.ps = ps;
    cfg.synthesizeArea = false;
    const core::FlowResult whole = core::runFlow(suite[bi].graph, cfg);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const sim::LatencyComparison& cell = cells[bi][i];
      const bool same =
          cell.tau.bestNs == whole.latency.tau.bestNs &&
          cell.tau.worstNs == whole.latency.tau.worstNs &&
          cell.dist.bestNs == whole.latency.dist.bestNs &&
          cell.dist.worstNs == whole.latency.dist.worstNs &&
          cell.tau.averageNs[0] == whole.latency.tau.averageNs[i] &&
          cell.dist.averageNs[0] == whole.latency.dist.averageNs[i] &&
          cell.enhancementPercent[0] == whole.latency.enhancementPercent[i];
      if (!same) {
        std::cerr << "FAIL: cached per-P result differs from the monolithic "
                     "flow for "
                  << suite[bi].name << " at P=" << ps[i] << "\n";
        return 1;
      }
      ++checked;
    }
  }
  std::cout << "Bit-identity: " << checked
            << "/66 cells match the monolithic multi-P flow exactly.\n";

  // --- Artifact-reuse speedup on one benchmark: the cached 11-point per-P
  // sweep vs the pre-pipeline equivalent (one full uncached flow per P).
  const std::size_t study = suite.size() - 1;  // AR-lattice, the deepest DFG
  const auto uncachedT0 = std::chrono::steady_clock::now();
  std::vector<sim::LatencyComparison> uncachedCells;
  for (double p : ps) {
    uncachedCells.push_back(
        core::runFlow(suite[study].graph, perPointConfig(study, p)).latency);
  }
  const double uncachedMs = bench::wallMs(uncachedT0);

  const auto cachedT0 = std::chrono::steady_clock::now();
  auto studyCache = std::make_shared<core::ArtifactCache>();
  std::vector<sim::LatencyComparison> cachedCells;
  for (double p : ps) {
    core::FlowPipeline pipeline(suite[study].graph,
                                perPointConfig(study, p), studyCache);
    cachedCells.push_back(pipeline.run().latency);
  }
  const double cachedMs = bench::wallMs(cachedT0);

  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (cachedCells[i].dist.averageNs[0] != uncachedCells[i].dist.averageNs[0] ||
        cachedCells[i].tau.averageNs[0] != uncachedCells[i].tau.averageNs[0]) {
      std::cerr << "FAIL: cached and uncached sweeps disagree on "
                << suite[study].name << " at P=" << ps[i] << "\n";
      return 1;
    }
  }
  std::cout << "Artifact-reuse speedup (" << suite[study].name
            << ", 11-point per-P sweep): "
            << bench::fixed(uncachedMs / cachedMs, 2) << "x ("
            << bench::fixed(uncachedMs, 1) << " ms uncached vs "
            << bench::fixed(cachedMs, 1)
            << " ms through the shared cache), identical numbers.\n";

  if (!traceJsonPath.empty()) {
    std::vector<core::TracedRun> allRuns;
    for (const auto& perBench : traces) {
      allRuns.insert(allRuns.end(), perBench.begin(), perBench.end());
    }
    std::ofstream out(traceJsonPath);
    if (!out) {
      std::cerr << "cannot open " << traceJsonPath << "\n";
      return 1;
    }
    out << core::traceToChromeJson(allRuns);
    std::cout << "Wrote pipeline trace (" << allRuns.size() << " runs) to "
              << traceJsonPath << ".\n";
  }
  return 0;
}
