// X-safety speed trajectory -- the per-PR tracked benchmark for the ternary
// reset-robustness checker and the don't-care soundness checker over the
// Table 2 suite under both state encodings:
//
//   xprop   bit-parallel ternary evaluation of the controller-network model
//           from every power-on state through the reset protocol, plus the
//           ternary replay of the emitted RTL lowered to an AIG
//           (verify::checkXprop, XPR001/XPR002).
//   dcs     per-controller care-set equivalence and BMC + k-induction
//           don't-care reachability (verify::checkDcs, DCS001-DCS003).
//
// and emits BENCH_xcheck.json:
//
//   "structural"  deterministic, machine-independent facts: per benchmark
//                 and encoding the controller count, model register count,
//                 proven reset depth, power-on instance count, ternary gate
//                 evaluations, every rule's verdict keyed by rule and
//                 artifact ("DCS001 fsm D_FSM_mult1": one row per checked
//                 controller), and the don't-care exploitation counts.  CI
//                 diffs them against bench/baselines/BENCH_xcheck.json via
//                 tools/compare_bench.py and fails on drift.
//   "timingsMs"   wall-clock per benchmark and checker plus the totals.
//                 Machine dependent; reported informationally.
//
// The bench self-checks that every rule on every benchmark is PROVED under
// both encodings and that no diagnostic escalates past info; any violation
// exits non-zero -- an X that survives reset on a clean paper benchmark is a
// bug, not a trade-off.
//
//   xcheck_speed [--json FILE]
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/distributed.hpp"
#include "verify/dcs_check.hpp"
#include "verify/xprop_check.hpp"

namespace {

using namespace tauhls;

struct Run {
  std::string bench;
  std::string encoding;
  verify::XpropStats xprop;
  verify::DcsStats dcs;
  bool clean = false;
  double xpropMs = 0.0;
  double dcsMs = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = "BENCH_xcheck.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: xcheck_speed [--json FILE]\n";
      return 2;
    }
  }

  bench::banner("X-safety speed (ternary reset proof + don't-care soundness)");

  const auto suite = dfg::paperTable2Suite();
  bool ok = true;
  std::vector<Run> runs;
  double xpropTotalMs = 0.0;
  double dcsTotalMs = 0.0;

  for (const dfg::NamedBenchmark& b : suite) {
    core::FlowConfig cfg;
    cfg.allocation = b.allocation;
    core::FlowPipeline pipeline(b.graph, cfg);
    const auto dcu = pipeline.get<fsm::DistributedControlUnit>(
        core::Artifact::Distributed);

    for (const synth::EncodingStyle style :
         {synth::EncodingStyle::Binary, synth::EncodingStyle::OneHot}) {
      Run run;
      run.bench = b.name;
      run.encoding = style == synth::EncodingStyle::OneHot ? "onehot" : "binary";
      const std::string artifact = "dcu " + b.graph.name();

      verify::XprOptions xo;
      xo.style = style;
      verify::Report report;
      auto t0 = std::chrono::steady_clock::now();
      run.xprop = verify::checkXprop(dcu, artifact, report, xo);
      run.xpropMs = bench::wallMs(t0);
      xpropTotalMs += run.xpropMs;

      verify::DcsOptions dco;
      dco.style = style;
      t0 = std::chrono::steady_clock::now();
      run.dcs = verify::checkDcs(dcu, artifact, report, dco);
      run.dcsMs = bench::wallMs(t0);
      dcsTotalMs += run.dcsMs;

      run.clean = !report.hasErrors();
      if (!run.clean) {
        std::cerr << "FAIL: " << b.name << " (" << run.encoding
                  << ") has X-safety errors\n"
                  << verify::renderText(report);
        ok = false;
      }
      for (const verify::XpropPropertyStat& p : run.xprop.properties) {
        if (p.verdict != "PROVED") {
          std::cerr << "FAIL: " << b.name << " (" << run.encoding << ") "
                    << p.rule << " is " << p.verdict << "\n";
          ok = false;
        }
      }
      for (const verify::XpropPropertyStat& p : run.dcs.properties) {
        if (p.verdict != "PROVED") {
          std::cerr << "FAIL: " << b.name << " (" << run.encoding << ") "
                    << p.rule << " is " << p.verdict << "\n";
          ok = false;
        }
      }

      std::cout << std::left << std::setw(12) << b.name << " " << std::setw(7)
                << run.encoding << " " << run.xprop.controllers
                << " controllers, "
                << (run.xprop.stateBits + run.xprop.latchBits)
                << " registers, reset depth " << run.xprop.resetDepth << ", "
                << run.xprop.gateEvals << " gate evals; xprop "
                << bench::fixed(run.xpropMs, 3) << " ms, dcs "
                << bench::fixed(run.dcsMs, 3) << " ms\n";
      runs.push_back(std::move(run));
    }
  }
  std::cout << "total: xprop " << bench::fixed(xpropTotalMs, 3) << " ms, dcs "
            << bench::fixed(dcsTotalMs, 3) << " ms\n";
  std::cout << "X-safety: " << (ok ? "OK" : "FAILED") << "\n";

  JsonWriter w;
  w.beginObject();
  w.key("schema").value("tauhls-bench-xcheck");
  w.key("version").value(2);
  w.key("structural").beginObject();
  w.key("benchmarks").value(suite.size());
  w.key("runs").value(runs.size());
  w.key("allProved").value(ok ? 1 : 0);
  w.key("perRun").beginObject();
  for (const Run& r : runs) {
    w.key(r.bench + " " + r.encoding).beginObject();
    w.key("controllers").value(r.xprop.controllers);
    w.key("registers").value(r.xprop.stateBits + r.xprop.latchBits);
    w.key("resetDepth").value(r.xprop.resetDepth);
    w.key("instances").value(r.xprop.instances);
    w.key("gateEvals").value(r.xprop.gateEvals);
    w.key("functionsChecked").value(r.dcs.functionsChecked);
    w.key("dcFunctions").value(r.dcs.dcFunctions);
    w.key("rules").beginObject();
    for (const auto* props : {&r.xprop.properties, &r.dcs.properties}) {
      for (const verify::XpropPropertyStat& p : *props) {
        w.key(p.rule + " " + p.artifact).beginObject();
        w.key("verdict").value(p.verdict);
        w.key("depth").value(p.depth);
        w.endObject();
      }
    }
    w.endObject();
    w.endObject();
  }
  w.endObject();
  w.endObject();
  w.key("timingsMs").beginObject();
  w.key("xpropTotal").fixed(xpropTotalMs);
  w.key("dcsTotal").fixed(dcsTotalMs);
  w.key("perRun").beginObject();
  for (const Run& r : runs) {
    w.key(r.bench + " " + r.encoding).beginObject();
    w.key("xprop").fixed(r.xpropMs);
    w.key("dcs").fixed(r.dcsMs);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  w.endObject();
  if (!bench::writeJson(jsonPath, w)) return 1;
  return ok ? 0 : 1;
}
