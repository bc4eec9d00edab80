#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <utility>

#include "bench_util.hpp"
#include "core/hier_flow.hpp"
#include "core/json.hpp"
#include "core/report.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "explore/pareto.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/signal_opt.hpp"
#include "rtl/verilog.hpp"
#include "sched/clique.hpp"
#include "sim/makespan.hpp"
#include "sim/stats.hpp"
#include "synth/area.hpp"
#include "synth/extract.hpp"
#include "verify/dcs_check.hpp"
#include "verify/equiv_check.hpp"
#include "verify/model_check.hpp"
#include "verify/timing_check.hpp"
#include "verify/verify.hpp"
#include "verify/xprop_check.hpp"
#include "vsim/parser.hpp"

namespace perfbench {
namespace {

using namespace tauhls;
using core::Artifact;
using core::FlowConfig;
using CachePtr = std::shared_ptr<core::ArtifactCache>;

std::string fixed3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// FNV-1a 64, as 16 hex digits: a compact identity for large outputs.
std::string digest(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string allocationName(const sched::Allocation& alloc) {
  std::string out;
  for (const auto& [cls, n] : alloc) {
    if (!out.empty()) out += ',';
    out += std::string(dfg::resourceClassName(cls)) + ":" + std::to_string(n);
  }
  return out;
}

Json latencyCells(const sim::LatencyRow& row) {
  Json cells = Json::array();
  cells.push(fixed3(row.bestNs));
  for (double v : row.averageNs) cells.push(fixed3(v));
  cells.push(fixed3(row.worstNs));
  return cells;
}

Json table2Cells(const sim::LatencyComparison& lat) {
  Json t = Json::object();
  t.set("tau", latencyCells(lat.tau));
  t.set("dist", latencyCells(lat.dist));
  return t;
}

Json areaCounts(const synth::AreaRow& row) {
  Json r = Json::object();
  r.set("literals", row.combArea / synth::kAreaPerLiteral);
  r.set("flip_flops", row.flipFlops);
  return r;
}

/// Table 1 literal and flip-flop counts, one row per controller name.
Json table1Counts(const core::FlowResult& r) {
  Json t = Json::object();
  for (const synth::AreaRow& row : r.distArea->perController) {
    t.set(row.name, areaCounts(row));
  }
  t.set(r.distArea->total.name, areaCounts(r.distArea->total));
  t.set(r.centSyncArea->name, areaCounts(*r.centSyncArea));
  return t;
}

/// The best/worst Table 2 cells the reproduction matches exactly
/// (EXPERIMENTS.md, Table 2).  The remaining best/worst cells are documented
/// deviations of the reconstructed DFGs, so only these are an independent
/// reference for the flow's output.
struct PaperCell {
  const char* design;
  bool dist;
  bool worst;
};
constexpr PaperCell kExactPaperCells[] = {
    {"3rd FIR", false, false},    {"3rd FIR", false, true},
    {"3rd FIR", true, false},     {"3rd FIR", true, true},
    {"5th FIR", false, false},    {"5th FIR", true, false},
    {"2nd IIR", false, false},    {"2nd IIR", true, false},
    {"Diff.", false, false},      {"Diff.", false, true},
    {"Diff.", true, false},       {"Diff.", true, true},
    {"AR-lattice", false, false}, {"AR-lattice", false, true},
    {"AR-lattice", true, false},
};

void checkPaperCells(const std::string& design,
                     const sim::LatencyComparison& lat) {
  for (const bench::PaperTable2Ref& ref : bench::kPaperTable2) {
    if (design != ref.name) continue;
    for (const PaperCell& cell : kExactPaperCells) {
      if (design != cell.design) continue;
      const sim::LatencyRow& row = cell.dist ? lat.dist : lat.tau;
      const double got = cell.worst ? row.worstNs : row.bestNs;
      const double want = cell.dist ? (cell.worst ? ref.distWorst : ref.distBest)
                                    : (cell.worst ? ref.tauWorst : ref.tauBest);
      if (std::abs(got - want) > 1e-9) {
        throw std::runtime_error(design + (cell.dist ? " LT_DIST " : " LT_TAU ") +
                                 (cell.worst ? "worst " : "best ") +
                                 fixed3(got) + " ns differs from the paper's " +
                                 fixed3(want) + " ns");
      }
    }
  }
}

/// Run one design and record it under `id`; a throw marks it failed.
template <typename F>
void guarded(RunResult& rr, const std::string& id, F&& body) {
  DesignResult d;
  try {
    body(d);
  } catch (const std::exception& e) {
    d = DesignResult{};
    d.ok = false;
    d.error = e.what();
  }
  if (!rr.designs.emplace(id, std::move(d)).second) {
    throw std::logic_error("duplicate design id " + id);
  }
}

void addPassTimes(const core::FlowPipeline& p, RunResult& rr) {
  for (const core::PassTraceEvent& ev : p.traceEvents()) {
    rr.passMs[ev.pass] += ev.durationUs / 1000.0;
  }
}

/// The default flow (FlowPipeline::run) of one flat design; returns its
/// Table 2 statistics.
sim::LatencyComparison runFlowDesign(const dfg::Dfg& g, const FlowConfig& cfg,
                                     const CachePtr& cache, RunResult& rr,
                                     DesignResult& d) {
  core::FlowPipeline p(g, cfg, cache);
  const core::FlowResult r = p.run();
  addPassTimes(p, rr);
  d.outputs.set("table2", table2Cells(r.latency));
  d.outputs.set("table1", table1Counts(r));
  d.outputs.set("result_digest", digest(core::toJson(r)));
  d.checked = 1;
  d.decided = r.diagnostics.has("MDL007") ? 0 : 1;
  return r.latency;
}

/// Diagnostic counts keyed artifact -> rule code.
Json diagnosticCounts(const verify::Report& report) {
  std::map<std::string, std::map<std::string, int>> counts;
  for (const verify::Diagnostic& d : report.diagnostics()) {
    ++counts[d.artifact][d.code];
  }
  Json out = Json::object();
  for (const auto& [artifact, codes] : counts) {
    Json row = Json::object();
    for (const auto& [code, n] : codes) row.set(code, n);
    out.set(artifact, std::move(row));
  }
  return out;
}

/// X-propagation / don't-care verdicts keyed artifact -> rule; a repeated
/// (artifact, rule) pair is an error, never a silent overwrite.
Json propertyVerdicts(const std::vector<verify::XpropPropertyStat>& rows,
                      DesignResult& d) {
  std::map<std::string, Json> byArtifact;
  for (const verify::XpropPropertyStat& p : rows) {
    auto it = byArtifact.try_emplace(p.artifact, Json::object()).first;
    it->second.set(p.rule, p.verdict);
    ++d.checked;
    if (p.verdict != "UNKNOWN") ++d.decided;
  }
  Json out = Json::object();
  for (auto& [artifact, row] : byArtifact) out.set(artifact, std::move(row));
  return out;
}

/// runHierFlow's don't-care rows name a leaf controller by its FSM alone
/// ("fsm D_FSM_mult1"), and every leaf has its own D_FSM_mult1.  Re-anchor
/// them to their leaf path, following the leaf order runHierFlow checks them
/// in (the sequencer's rows come first).
std::vector<verify::XpropPropertyStat> anchorLeafRows(
    std::vector<verify::XpropPropertyStat> rows,
    const fsm::HierarchicalControlUnit& hcu) {
  std::size_t i = 0;
  while (i < rows.size() && rows[i].artifact.rfind("fsm ", 0) != 0) ++i;
  for (const fsm::LeafControl& leaf : hcu.leaves) {
    for (const fsm::UnitController& ctl : leaf.dcu.controllers) {
      for (; i < rows.size() && rows[i].artifact == "fsm " + ctl.fsm.name();
           ++i) {
        rows[i].artifact = "leaf " + leaf.path + ": " + rows[i].artifact;
      }
    }
  }
  return rows;
}

/// `tauhlsc lint` exits non-zero on error-severity diagnostics.
void requireClean(const verify::Report& report) {
  if (report.hasErrors()) {
    throw std::runtime_error("lint reported errors:\n" +
                             verify::renderText(report));
  }
}

// ---------------------------------------------------------------------------
// Replay: the calls each pass makes, in flow order, one span per call.

struct ReplayParts {
  bool latency = false;       ///< sim::compareLatencies
  bool area = false;          ///< distributed area report
  bool centSyncArea = false;  ///< CENT-SYNC baseline area row
  bool lint = false;          ///< RTL, equivalence, timing, X and DCS checks
};

constexpr ReplayParts kFlowParts{true, true, true, false};
constexpr ReplayParts kLintParts{false, false, false, true};
constexpr ReplayParts kExploreParts{true, true, false, false};

template <typename F>
auto timed(Tracer& t, const char* layer, const std::string& design, F&& f) {
  Tracer::Scope span(t, layer, design);
  return f();
}

void replayFlat(Tracer& t, const std::string& id, const dfg::Dfg& g,
                const FlowConfig& cfg, const ReplayParts& parts) {
  Tracer::Scope designSpan(t, "design", id);
  const sched::ScheduledDfg s = timed(t, "sched", id, [&] {
    return sched::scheduleAndBind(g, cfg.allocation, cfg.library,
                                  cfg.strategy);
  });
  const fsm::DistributedControlUnit dcu = timed(t, "fsm.alg1", id, [&] {
    return cfg.optimizeSignals ? fsm::optimizeSignals(fsm::buildDistributed(s))
                               : fsm::buildDistributed(s);
  });
  const fsm::Fsm cent =
      timed(t, "fsm.cent_sync", id, [&] { return fsm::buildCentSync(s); });

  // Synthesize every controller before any consumer runs, so the library's
  // process-wide minimization memo (logic/minimize.cpp) charges two-level
  // minimization to synth rather than to whichever check runs first.
  for (const fsm::UnitController& ctl : dcu.controllers) {
    Tracer::Scope span(t, "synth", id + "/" + ctl.fsm.name());
    span.count("literals",
               synth::synthesize(ctl.fsm, cfg.encoding).totalLiterals());
  }

  if (parts.latency) {
    Tracer::Scope span(t, "sim.latency", id);
    sim::LatencyOptions lo;
    lo.mcSamples = cfg.mcSamples;
    lo.mcMaxSamples = cfg.mcMaxSamples;
    lo.mcTargetHalfWidth = cfg.mcTargetHalfWidth;
    std::vector<sim::McEstimate> mc;
    sim::compareLatencies(s, cfg.ps, lo, &mc);
    double samples = 0.0;
    for (const sim::McEstimate& e : mc) samples += static_cast<double>(e.samples);
    // Zero Monte-Carlo samples means the exact sweep enumerated every mask.
    if (samples == 0.0) {
      samples = std::ldexp(1.0, sim::MakespanEngine(s).numTauOps());
    }
    span.count("samples", samples);
  }

  verify::Report report;
  {
    Tracer::Scope span(t, "verify.model_check", id);
    verify::ModelCheckOptions mc;
    mc.maxStates = cfg.verifyMaxStates;
    verify::modelCheckControllers(dcu, s, cent, report, mc);
  }
  {
    Tracer::Scope span(t, "verify.static", id);
    verify::VerifyOptions vo;
    vo.requestedAllocation = &cfg.allocation;
    vo.centSync = &cent;
    vo.modelCheck = false;
    verify::verifyFlow(s, dcu, vo);
  }

  if (parts.area) {
    Tracer::Scope span(t, "synth.area", id);
    synth::distributedArea(dcu, cfg.encoding);
    if (parts.centSyncArea) synth::areaRow("CENT-SYNC-FSM", cent, cfg.encoding);
  }

  if (!parts.lint) return;
  const std::string package = timed(t, "rtl.emit", id, [&] {
    return rtl::emitPackage(dcu, "dcu_" + g.name());
  });
  timed(t, "vsim.parse", id, [&] { return vsim::parseDesign(package); });
  {
    Tracer::Scope span(t, "verify.equiv", id);
    verify::EquivOptions eo;
    eo.style = cfg.encoding;
    eo.maxConflicts = cfg.equivMaxConflicts;
    verify::EquivStats stats;
    verify::checkEquivalence(dcu, eo, &stats);
    for (const auto& [code, cost] : stats.ruleCost) {
      span.count("sat_conflicts", static_cast<double>(cost.conflicts));
      span.count("sat_queries", static_cast<double>(cost.queries));
      span.count("sim_discharged", static_cast<double>(cost.simDischarged));
    }
  }
  {
    Tracer::Scope span(t, "verify.timing", id);
    verify::TimingOptions to;
    to.marginNs = cfg.timingMarginNs;
    to.style = cfg.encoding;
    verify::checkTiming(dcu, s.clockNs, to);
  }
  const std::string artifact = "dcu " + g.name();
  {
    Tracer::Scope span(t, "verify.xprop", id);
    verify::XprOptions xo;
    xo.style = cfg.encoding;
    xo.maxCycles = cfg.xpropCycles;
    xo.words = cfg.xpropWords;
    verify::Report xr;
    span.count("gate_evals", static_cast<double>(
                                 verify::checkXprop(dcu, artifact, xr, xo)
                                     .gateEvals));
  }
  {
    Tracer::Scope span(t, "verify.dcs", id);
    verify::DcsOptions dco;
    dco.style = cfg.encoding;
    dco.maxDepth = cfg.dcsMaxDepth;
    dco.maxConflicts = cfg.dcsMaxConflicts;
    verify::Report dr;
    verify::checkDcs(dcu, artifact, dr, dco);
  }
}

// ---------------------------------------------------------------------------
// table2-flow

class Table2Flow : public Workload {
 public:
  RunResult run(const CacheMap& caches) override {
    RunResult rr;
    const CachePtr& cache = caches.at("main");
    for (const dfg::NamedBenchmark& b : suite_) {
      guarded(rr, b.name, [&](DesignResult& d) {
        FlowConfig cfg;
        cfg.allocation = b.allocation;
        checkPaperCells(b.name, runFlowDesign(b.graph, cfg, cache, rr, d));
      });
    }
    guarded(rr, "fir_iir_loop", [&](DesignResult& d) {
      const core::HierFlowResult h =
          core::runHierFlow(loop_, loopConfig(), {}, cache);
      d.outputs.set("table2", table2Cells(h.latency));
      d.outputs.set("activations", static_cast<int>(h.activations.size()));
      d.outputs.set("tau_ops", h.totalTauOps);
      d.outputs.set("result_digest",
                    digest(core::formatComposedTable2Row("fir_iir_loop", h) +
                           verify::renderText(h.diagnostics)));
      d.checked = 1;
      d.decided = h.diagnostics.has("MDL007") ? 0 : 1;
    });
    return rr;
  }

  void replay(Tracer& t) override {
    for (const dfg::NamedBenchmark& b : suite_) {
      FlowConfig cfg;
      cfg.allocation = b.allocation;
      replayFlat(t, b.name, b.graph, cfg, kFlowParts);
    }
    Tracer::Scope span(t, "region.hier_flow", "fir_iir_loop");
    core::runHierFlow(loop_, loopConfig());
  }

 private:
  static FlowConfig loopConfig() {
    FlowConfig cfg;
    cfg.allocation = dfg::firIirLoopAllocation();
    return cfg;
  }

  const std::vector<dfg::NamedBenchmark> suite_ = dfg::paperTable2Suite();
  const dfg::RegionProgram loop_ = dfg::firIirLoop();
};

// ---------------------------------------------------------------------------
// table2-lint: what `tauhlsc lint --equiv --timing --xprop` runs, once per
// encoding (one CLI invocation, so one cache and store, each).

class Table2Lint : public Workload {
 public:
  std::vector<std::string> cacheNames() const override {
    return {"binary", "onehot"};
  }

  RunResult run(const CacheMap& caches) override {
    RunResult rr;
    for (const auto& [encName, enc] : kEncodings) {
      const CachePtr& cache = caches.at(encName);
      for (const dfg::NamedBenchmark& b : suite_) {
        guarded(rr, std::string(encName) + "/" + b.name, [&](DesignResult& d) {
          core::FlowPipeline p(b.graph, lintConfig(b.allocation, enc), cache);
          verify::Report report = p.modelCheckedDiagnostics();
          d.checked = 1;
          d.decided = report.has("MDL007") ? 0 : 1;
          const auto& eq =
              p.get<verify::EquivalenceArtifact>(Artifact::Equivalence);
          report.merge(eq.report);
          const auto functions =
              static_cast<std::uint64_t>(eq.stats.functionsCompared);
          d.checked += functions;
          d.decided += functions - eq.report.withCode("EQV005").size();
          report.merge(p.get<verify::Report>(Artifact::Timing));
          const auto& xc = p.get<verify::XCheckArtifact>(Artifact::XCheck);
          report.merge(xc.report);
          std::vector<verify::XpropPropertyStat> rows = xc.xprop.properties;
          rows.insert(rows.end(), xc.dcs.properties.begin(),
                      xc.dcs.properties.end());
          addPassTimes(p, rr);
          d.outputs.set("diagnostics", diagnosticCounts(report));
          d.outputs.set("properties", propertyVerdicts(rows, d));
          d.outputs.set("equiv_functions", eq.stats.functionsCompared);
          requireClean(report);
        });
      }
      // --timing has no composed form, so the hierarchical design runs with
      // --equiv --xprop only.
      guarded(rr, std::string(encName) + "/fir_iir_loop",
              [&](DesignResult& d) {
                const core::HierFlowResult h = core::runHierFlow(
                    loop_, lintConfig(dfg::firIirLoopAllocation(), enc),
                    hierLintOptions(), cache);
                d.checked = 1;
                d.decided = h.diagnostics.has("MDL007") ? 0 : 1;
                std::vector<verify::XpropPropertyStat> rows =
                    h.xpropStats.properties;
                for (const verify::XpropPropertyStat& row :
                     anchorLeafRows(h.dcsStats.properties, h.control)) {
                  rows.push_back(row);
                }
                d.outputs.set("diagnostics", diagnosticCounts(h.diagnostics));
                d.outputs.set("properties", propertyVerdicts(rows, d));
                requireClean(h.diagnostics);
              });
    }
    return rr;
  }

  void replay(Tracer& t) override {
    for (const auto& [encName, enc] : kEncodings) {
      for (const dfg::NamedBenchmark& b : suite_) {
        replayFlat(t, std::string(encName) + "/" + b.name, b.graph,
                   lintConfig(b.allocation, enc), kLintParts);
      }
      Tracer::Scope span(t, "region.hier_flow",
                         std::string(encName) + "/fir_iir_loop");
      core::runHierFlow(loop_, lintConfig(dfg::firIirLoopAllocation(), enc),
                        hierLintOptions());
    }
  }

 private:
  static constexpr std::pair<const char*, synth::EncodingStyle> kEncodings[] =
      {{"binary", synth::EncodingStyle::Binary},
       {"onehot", synth::EncodingStyle::OneHot}};

  /// The CLI's lint config: a one-shot audit with the full model-check
  /// budget (cli.cpp runLint).
  static FlowConfig lintConfig(const sched::Allocation& alloc,
                               synth::EncodingStyle enc) {
    FlowConfig cfg;
    cfg.allocation = alloc;
    cfg.encoding = enc;
    cfg.verifyMaxStates = 200000;
    return cfg;
  }

  static core::HierFlowOptions hierLintOptions() {
    core::HierFlowOptions ho;
    ho.equivalence = true;
    ho.xprop = true;
    ho.latency = false;
    ho.gateErrors = false;
    return ho;
  }

  const std::vector<dfg::NamedBenchmark> suite_ = dfg::paperTable2Suite();
  const dfg::RegionProgram loop_ = dfg::firIirLoop();
};

// ---------------------------------------------------------------------------
// fuzz-flow

/// Graph seeds of the committed fuzz pool (expected/fuzz-flow.json holds one
/// FlowResult digest per seed).  Every run compiles the whole pool so runs
/// under different workload seeds do equal work; the workload seed sets the
/// order.
constexpr std::uint64_t kFuzzPool[] = {1, 2, 3, 4};

class FuzzFlow : public Workload {
 public:
  explicit FuzzFlow(std::uint64_t seed) {
    std::vector<std::uint64_t> order(std::begin(kFuzzPool), std::end(kFuzzPool));
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::uint64_t graphSeed : order) {
      dfg::RandomDfgSpec spec;
      spec.seed = graphSeed;
      spec.numLayers = 9;  // 9 x 4 = 36 ops
      spec.layerWidth = 4;
      spec.mulPermille = 700;
      graphs_.emplace_back("graph" + std::to_string(graphSeed),
                           dfg::randomDfg(spec));
    }
  }

  RunResult run(const CacheMap& caches) override {
    RunResult rr;
    for (const auto& [id, g] : graphs_) {
      guarded(rr, id, [&](DesignResult& d) {
        runFlowDesign(g, flowConfig(), caches.at("main"), rr, d);
      });
    }
    return rr;
  }

  void replay(Tracer& t) override {
    for (const auto& [id, g] : graphs_) {
      replayFlat(t, id, g, flowConfig(), kFlowParts);
    }
  }

 private:
  static FlowConfig flowConfig() {
    FlowConfig cfg;
    cfg.allocation = {{dfg::ResourceClass::Multiplier, 2},
                      {dfg::ResourceClass::Adder, 1},
                      {dfg::ResourceClass::Subtractor, 1}};
    return cfg;
  }

  std::vector<std::pair<std::string, dfg::Dfg>> graphs_;
};

// ---------------------------------------------------------------------------
// dse-sweep

class DseSweep : public Workload {
 public:
  RunResult run(const CacheMap& caches) override {
    RunResult rr;
    for (const auto& [name, g] : graphs_) {
      guarded(rr, name, [&](DesignResult& d) {
        explore::ExploreOptions eo;
        eo.cache = caches.at("main");
        const std::vector<explore::DesignPoint> points = explore::explore(g, eo);
        rr.explorePoints += points.size();
        Json rows = Json::object();
        for (const explore::DesignPoint& p : points) {
          Json row = Json::object();
          row.set("latency_ns", fixed3(p.averageLatencyNs));
          row.set("controller_area", p.controllerArea);
          row.set("registers", p.datapathRegisters);
          row.set("units", p.unitCount);
          row.set("pareto", p.paretoOptimal);
          rows.set(allocationName(p.allocation), std::move(row));
        }
        d.outputs.set("points", std::move(rows));
        // explore() throws when a point fails its verification gate, so
        // every returned point carries a complete verdict.
        d.checked = d.decided = points.size();
      });
    }
    return rr;
  }

  void replay(Tracer& t) override {
    const explore::ExploreOptions defaults;
    for (const auto& [name, g] : graphs_) {
      for (const sched::Allocation& alloc :
           allocationGrid(g, defaults.maxUnitsPerClass)) {
        FlowConfig cfg;
        cfg.allocation = alloc;
        cfg.ps = {defaults.p};
        replayFlat(t, name + " " + allocationName(alloc), g, cfg,
                   kExploreParts);
      }
    }
  }

 private:
  /// explore()'s grid: 1..maxUnits units per present class, capped at the
  /// class's minimum chain cover, in odometer order.
  static std::vector<sched::Allocation> allocationGrid(const dfg::Dfg& g,
                                                       int maxUnits) {
    std::vector<dfg::ResourceClass> classes;
    std::vector<int> maxOf;
    for (dfg::ResourceClass cls :
         {dfg::ResourceClass::Multiplier, dfg::ResourceClass::Adder,
          dfg::ResourceClass::Subtractor, dfg::ResourceClass::Divider,
          dfg::ResourceClass::Logic}) {
      if (g.opsOfClass(cls).empty()) continue;
      classes.push_back(cls);
      maxOf.push_back(std::min(
          maxUnits, static_cast<int>(sched::minChainCover(g, cls).size())));
    }
    std::vector<sched::Allocation> grid;
    std::vector<int> counts(classes.size(), 1);
    while (true) {
      sched::Allocation alloc;
      for (std::size_t i = 0; i < classes.size(); ++i) {
        alloc[classes[i]] = counts[i];
      }
      grid.push_back(std::move(alloc));
      std::size_t pos = 0;
      while (pos < counts.size() && ++counts[pos] > maxOf[pos]) {
        counts[pos++] = 1;
      }
      if (pos == counts.size()) return grid;
    }
  }

  const std::vector<std::pair<std::string, dfg::Dfg>> graphs_ = {
      {"Diff.", dfg::diffeq()}, {"AR-lattice", dfg::arLattice()}};
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"table2-flow", "table2-lint",
                                                 "fuzz-flow", "dse-sweep"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "table2-flow") return std::make_unique<Table2Flow>();
  if (name == "table2-lint") return std::make_unique<Table2Lint>();
  if (name == "fuzz-flow") return std::make_unique<FuzzFlow>(seed);
  if (name == "dse-sweep") return std::make_unique<DseSweep>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::map<std::string, double> layerMetrics(const Tracer& tracer) {
  // Span name -> metric carrying its summed self time.
  static const std::map<std::string, std::string> kLayerMs = {
      {"sched", "sched.ms"},
      {"fsm.alg1", "fsm.alg1_ms"},
      {"fsm.cent_sync", "fsm.cent_sync_ms"},
      {"synth", "synth.ms"},
      {"synth.area", "synth.area_ms"},
      {"sim.latency", "sim.latency_ms"},
      {"verify.model_check", "verify.model_check_ms"},
      {"verify.static", "verify.static_ms"},
      {"rtl.emit", "rtl.emit_ms"},
      {"vsim.parse", "vsim.parse_ms"},
      {"verify.equiv", "verify.equiv_ms"},
      {"verify.timing", "verify.timing_ms"},
      {"verify.xprop", "verify.xprop_ms"},
      {"verify.dcs", "verify.dcs_ms"},
      {"region.hier_flow", "region.hier_flow_ms"},
  };
  // Span counter -> metric carrying its sum.
  static const std::map<std::string, std::string> kCounters = {
      {"literals", "synth.literals"},
      {"samples", "sim.samples"},
      {"sat_conflicts", "aig.sat_conflicts"},
      {"sat_queries", "aig.sat_queries"},
      {"gate_evals", "aig.ternary_gate_evals"},
  };
  std::map<std::string, double> m;
  for (const auto& [span, metric] : kLayerMs) m[metric] = 0.0;
  for (const auto& [counter, metric] : kCounters) m[metric] = 0.0;
  m["synth.max_controller_ms"] = 0.0;
  m["verify.dcs_max_design_ms"] = 0.0;
  m["trace.self_sum_ms"] = 0.0;
  m["trace.replay_ms"] = 0.0;
  m["trace.overhead_ms"] = tracer.overheadUs() / 1000.0;
  double simDischarged = 0.0;

  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> selfUs = tracer.selfTimesUs();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) m["trace.replay_ms"] += s.durationUs() / 1000.0;
    for (const auto& [counter, value] : s.counters) {
      if (counter == "sim_discharged") {
        simDischarged += value;
      } else {
        m[kCounters.at(counter)] += value;
      }
    }
    const auto layer = kLayerMs.find(s.name);
    if (layer == kLayerMs.end()) continue;
    const double selfMs = selfUs[i] / 1000.0;
    m[layer->second] += selfMs;
    m["trace.self_sum_ms"] += selfMs;
    if (s.name == "synth") {
      m["synth.max_controller_ms"] =
          std::max(m["synth.max_controller_ms"], selfMs);
    } else if (s.name == "verify.dcs") {
      m["verify.dcs_max_design_ms"] =
          std::max(m["verify.dcs_max_design_ms"], selfMs);
    }
  }
  const double queries = m["aig.sat_queries"];
  m["aig.sim_discharge_ratio"] =
      simDischarged + queries > 0.0 ? simDischarged / (simDischarged + queries)
                                    : 0.0;
  return m;
}

}  // namespace perfbench
