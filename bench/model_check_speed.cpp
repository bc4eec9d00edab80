// Model-check speed trajectory -- the per-PR tracked benchmark for the two
// controller verification engines over the Table 2 suite:
//
//   explicit   the enumerative product exploration (verify::modelCheckControllers,
//              MDL001-MDL007): one-shot rewrite, reachable product BFS, and the
//              phi-potential event analysis, with the default 200000-state bound.
//   symbolic   BMC + k-induction over the AIG transition relation
//              (verify::symbolicModelCheck, MDL001-MDL006 + MDL008): the engine
//              that retires MDL007 -- its verdicts do not depend on a state bound.
//
// and emits BENCH_modelcheck.json:
//
//   "structural"  deterministic, machine-independent facts: per benchmark the
//                 controller count, symbolic state-bit and template-AIG sizes,
//                 every property's verdict with the BMC depth and induction k
//                 that closed it, and the engine-agreement bit.  CI diffs them
//                 against bench/baselines/BENCH_modelcheck.json via
//                 tools/compare_bench.py and fails on drift.
//   "timingsMs"   wall-clock per benchmark and engine plus the totals.
//                 Machine dependent; reported informationally.
//
// The bench self-checks engine agreement (diagnostic codes equal once the
// bound warning MDL007 and the symbolic summary MDL008 are excluded), that
// every property on every clean benchmark is PROVED by k-induction with
// k >= 1, and that the strengthening invariant base-checks; any violation
// exits non-zero -- a symbolic engine that disagrees with the enumerative
// one is a bug, not a trade-off.
//
//   model_check_speed [--json FILE]
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "sched/scheduled_dfg.hpp"
#include "verify/model_check.hpp"
#include "verify/symbolic_check.hpp"

namespace {

using namespace tauhls;

/// Diagnostic codes both engines must agree on: everything except the
/// explicit engine's bound warning and the symbolic engine's summary line.
std::multiset<std::string> comparableCodes(const verify::Report& report) {
  std::multiset<std::string> out;
  for (const auto& d : report.diagnostics()) {
    if (d.code != "MDL007" && d.code != "MDL008") out.insert(d.code);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = "BENCH_modelcheck.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: model_check_speed [--json FILE]\n";
      return 2;
    }
  }

  bench::banner("Model-check speed (explicit enumeration vs BMC + k-induction)");

  const auto suite = dfg::paperTable2Suite();
  bool ok = true;

  // Build the inputs untimed: both engines consume the same artifacts.
  std::vector<sched::ScheduledDfg> schedules;
  std::vector<fsm::DistributedControlUnit> dcus;
  std::vector<fsm::Fsm> centSyncs;
  for (const dfg::NamedBenchmark& b : suite) {
    core::FlowConfig cfg;
    cfg.allocation = b.allocation;
    core::FlowPipeline pipeline(b.graph, cfg);
    schedules.push_back(
        pipeline.get<sched::ScheduledDfg>(core::Artifact::Schedule));
    dcus.push_back(pipeline.get<fsm::DistributedControlUnit>(
        core::Artifact::Distributed));
    centSyncs.push_back(pipeline.get<fsm::Fsm>(core::Artifact::CentSync));
  }

  std::vector<verify::Report> explicitReports(suite.size());
  std::vector<double> explicitMs(suite.size());
  double explicitTotalMs = 0.0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    verify::modelCheckControllers(dcus[i], schedules[i], centSyncs[i],
                                  explicitReports[i]);
    explicitMs[i] = bench::wallMs(t0);
    explicitTotalMs += explicitMs[i];
  }

  std::vector<verify::SymbolicArtifact> symbolic(suite.size());
  std::vector<double> symbolicMs(suite.size());
  double symbolicTotalMs = 0.0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    symbolic[i] = verify::symbolicModelCheck(dcus[i], schedules[i],
                                             &centSyncs[i]);
    symbolicMs[i] = bench::wallMs(t0);
    symbolicTotalMs += symbolicMs[i];
  }

  std::uint64_t totalConflicts = 0;
  std::uint64_t totalQueries = 0;
  std::size_t totalProved = 0;
  std::size_t totalProperties = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const verify::SymbolicStats& stats = symbolic[i].stats;
    if (comparableCodes(explicitReports[i]) !=
        comparableCodes(symbolic[i].report)) {
      std::cerr << "FAIL: engines disagree on " << suite[i].name << "\n";
      ok = false;
    }
    if (!stats.invariantHolds) {
      std::cerr << "FAIL: strengthening invariant base check failed on "
                << suite[i].name << "\n";
      ok = false;
    }
    std::size_t proved = 0;
    for (const verify::SymbolicProperty& p : stats.properties) {
      ++totalProperties;
      totalConflicts += p.cost.conflicts;
      totalQueries += p.cost.queries;
      if (p.verdict == verify::PropertyVerdict::Proved) {
        ++proved;
        if (p.inductionK < 1) {
          std::cerr << "FAIL: " << suite[i].name << " " << p.rule
                    << " proved with induction k < 1\n";
          ok = false;
        }
      } else {
        std::cerr << "FAIL: " << suite[i].name << " " << p.rule << " is "
                  << verify::propertyVerdictName(p.verdict)
                  << " on a clean benchmark\n";
        ok = false;
      }
    }
    totalProved += proved;
    std::cout << std::left << std::setw(12) << suite[i].name << " "
              << stats.controllers << " controllers, " << stats.stateBits
              << " state bits, " << proved << "/" << stats.properties.size()
              << " proved; explicit " << bench::fixed(explicitMs[i], 3)
              << " ms, symbolic " << bench::fixed(symbolicMs[i], 3) << " ms\n";
  }
  std::cout << "total: explicit " << bench::fixed(explicitTotalMs, 3)
            << " ms, symbolic " << bench::fixed(symbolicTotalMs, 3) << " ms, "
            << totalProved << "/" << totalProperties << " properties proved, "
            << totalQueries << " SAT queries, " << totalConflicts
            << " conflicts\n";
  std::cout << "Engine agreement: " << (ok ? "OK" : "FAILED") << "\n";

  JsonWriter w;
  w.beginObject();
  w.key("schema").value("tauhls-bench-modelcheck");
  w.key("version").value(1);
  w.key("structural").beginObject();
  w.key("benchmarks").value(suite.size());
  w.key("propertiesProved").value(totalProved);
  w.key("properties").value(totalProperties);
  w.key("enginesAgree").value(ok ? 1 : 0);
  w.key("perBenchmark").beginObject();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const verify::SymbolicStats& stats = symbolic[i].stats;
    w.key(suite[i].name).beginObject();
    w.key("controllers").value(stats.controllers);
    w.key("stateBits").value(stats.stateBits);
    w.key("templateNodes").value(stats.templateNodes);
    w.key("invariantHolds").value(stats.invariantHolds ? 1 : 0);
    w.key("properties").beginObject();
    for (const verify::SymbolicProperty& p : stats.properties) {
      w.key(p.rule).beginObject();
      w.key("verdict").value(verify::propertyVerdictName(p.verdict));
      w.key("inductionK").value(p.inductionK);
      w.key("depthReached").value(p.depthReached);
      w.endObject();
    }
    w.endObject();
    w.endObject();
  }
  w.endObject();
  w.endObject();
  w.key("timingsMs").beginObject();
  w.key("explicitTotal").fixed(explicitTotalMs);
  w.key("symbolicTotal").fixed(symbolicTotalMs);
  w.key("perBenchmark").beginObject();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    w.key(suite[i].name).beginObject();
    w.key("explicit").fixed(explicitMs[i]);
    w.key("symbolic").fixed(symbolicMs[i]);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  w.endObject();
  if (!bench::writeJson(jsonPath, w)) return 1;
  return ok ? 0 : 1;
}
