// Hierarchical-regions flow trajectory -- the per-PR tracked benchmark for
// the composed path (loop x4 FIR accumulation -> IIR corrector -> conditional
// output scaling, dfg::firIirLoop).  For both binding strategies it
//
//   * schedules every leaf against the shared {x:2, +:1} allocation,
//   * builds the composed controllers (per-leaf Algorithm-1 networks plus
//     the region sequencer) and runs the full hierarchical flow,
//   * cross-checks the composed makespan law against the flat-inlined
//     unrolled reference: composedHistogram (per-leaf enumeration +
//     convolution) must equal makespanHistogram(flattenScheduled(...))
//     bucket-for-bucket, for both control styles and both branch choices.
//
// and emits BENCH_regions.json:
//
//   "structural"  deterministic, machine-independent facts: region/activation
//                 /sequencer-state counts, controller totals, the composed
//                 Table-2 cells (bit-identical doubles printed to 3 decimals)
//                 and the composed==flat identity bit per configuration.  CI
//                 diffs them against bench/baselines/BENCH_regions.json via
//                 tools/compare_bench.py and fails on drift.
//   "timingsMs"   wall clock per stage; machine dependent, informational.
//
// Any identity violation exits non-zero -- a composed simulation that
// disagrees with the flat reference is a bug, not a trade-off.
//
//   region_flow [--json FILE]
#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/hier_flow.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/region.hpp"
#include "sched/region_schedule.hpp"
#include "sim/region_sim.hpp"

namespace {

using namespace tauhls;

void writeLatencyCells(JsonWriter& w, const sim::LatencyRow& row) {
  w.beginObject();
  w.key("bestNs").fixed(row.bestNs);
  w.key("averageNs").beginArray();
  for (double ns : row.averageNs) w.fixed(ns);
  w.endArray();
  w.key("worstNs").fixed(row.worstNs);
  w.endObject();
}

const char* strategyName(sched::BindingStrategy s) {
  return s == sched::BindingStrategy::LeftEdge ? "leftEdge" : "cliqueCover";
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = "BENCH_regions.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: region_flow [--json FILE]\n";
      return 2;
    }
  }

  bench::banner("Hierarchical regions flow (composed vs flat-inlined reference)");

  const dfg::RegionProgram program = dfg::firIirLoop();
  const dfg::Allocation alloc = dfg::firIirLoopAllocation();
  bool ok = true;

  JsonWriter w;
  w.beginObject();
  w.key("schema").value("tauhls-bench-regions");
  w.key("version").value(1);
  w.key("structural").beginObject();
  w.key("benchmark").value("fir_iir_loop");
  w.key("perStrategy").beginObject();

  struct StageMs {
    const char* strategy;
    double flow;
    double identity;
  };
  std::vector<StageMs> timings;
  double totalMs = 0.0;
  for (sched::BindingStrategy strategy :
       {sched::BindingStrategy::LeftEdge, sched::BindingStrategy::CliqueCover}) {
    core::FlowConfig cfg;
    cfg.allocation = alloc;
    cfg.strategy = strategy;
    cfg.synthesizeArea = false;

    const auto t0 = std::chrono::steady_clock::now();
    core::HierFlowResult r = core::runHierFlow(program, cfg);
    const double flowMs = bench::wallMs(t0);

    // Composed == flat identity, over styles x branch choices.
    bool identical = true;
    const auto t1 = std::chrono::steady_clock::now();
    for (bool thenBranch : {true, false}) {
      const dfg::BranchChoices choices = {{"s3", thenBranch}};
      sched::ScheduledDfg flat = sched::flattenScheduled(r.schedule, choices);
      for (sim::ControlStyle style :
           {sim::ControlStyle::Distributed, sim::ControlStyle::CentSync}) {
        sim::MakespanHistogram composed =
            sim::composedHistogram(r.schedule, style, choices);
        sim::MakespanHistogram reference = sim::makespanHistogram(flat, style);
        if (composed.tauCount != reference.tauCount ||
            composed.buckets != reference.buckets) {
          identical = false;
          ok = false;
          std::cerr << "FAIL: composed histogram deviates from the flat "
                    << "reference (" << strategyName(strategy) << ", "
                    << (style == sim::ControlStyle::Distributed ? "dist"
                                                                : "centSync")
                    << ", " << (thenBranch ? "then" : "else") << ")\n";
        }
      }
    }
    const double identityMs = bench::wallMs(t1);
    totalMs += flowMs + identityMs;

    std::cout << std::left << std::setw(12) << strategyName(strategy)
              << r.schedule.leaves.size() << " regions, " << r.activations.size()
              << " activations, " << r.control.sequencer.numStates()
              << " sequencer states, " << r.control.totalStates()
              << " total states, " << r.totalTauOps
              << " TAU ops on trace; composed==flat "
              << (identical ? "OK" : "FAILED") << "; flow "
              << bench::fixed(flowMs, 3) << " ms, identity "
              << bench::fixed(identityMs, 3)
              << " ms\n";
    std::cout << "  " << core::formatComposedTable2Row("fir_iir_loop", r);

    w.key(strategyName(strategy)).beginObject();
    w.key("regions").value(r.schedule.leaves.size());
    w.key("activations").value(r.activations.size());
    w.key("sequencerStates").value(r.control.sequencer.numStates());
    w.key("totalStates").value(r.control.totalStates());
    w.key("totalFlipFlops").value(r.control.totalFlipFlops());
    w.key("completionLatches").value(r.control.completionLatchCount());
    w.key("tauOpsOnTrace").value(r.totalTauOps);
    w.key("composedEqualsFlat").value(identical ? 1 : 0);
    w.key("ltTau");
    writeLatencyCells(w, r.latency.tau);
    w.key("ltDist");
    writeLatencyCells(w, r.latency.dist);
    w.key("enhancementPercent").beginArray();
    for (double e : r.latency.enhancementPercent) w.fixed(e);
    w.endArray();
    w.endObject();
    timings.push_back({strategyName(strategy), flowMs, identityMs});
  }
  w.endObject();
  w.endObject();
  w.key("timingsMs").beginObject();
  for (const StageMs& t : timings) {
    w.key(t.strategy).beginObject();
    w.key("flow").fixed(t.flow);
    w.key("identity").fixed(t.identity);
    w.endObject();
  }
  w.key("total").fixed(totalMs);
  w.endObject();
  w.endObject();

  std::cout << "total: " << bench::fixed(totalMs, 3) << " ms; identity "
            << (ok ? "OK" : "FAILED") << "\n";

  if (!bench::writeJson(jsonPath, w)) return 1;
  return ok ? 0 : 1;
}
