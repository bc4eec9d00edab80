// Tests for the X-propagation / reset-robustness checker
// (verify/xprop_check.hpp) and the don't-care soundness checker
// (verify/dcs_check.hpp).
//
// Six families:
//   - clean sweeps: every paper benchmark under both binding strategies and
//     both state encodings proves XPR001/XPR002 and DCS001/DCS002, and the
//     composed fir_iir_loop proves XPR003 on top;
//   - one lowering: the network cycle XPR and the symbolic model check
//     share (lowering::networkStep) steps exactly like fsm::stepNetwork;
//   - mutations: each injected fault (model latch without reset, controller
//     without state reset, RTL latch without a reset arc, sequencer done
//     latch without init, don't-care-abusing minimizer) is caught by exactly
//     its rule, with a decodable per-cycle waveform;
//   - budget: a DCS002 query that exhausts its conflict budget closes the
//     row UNKNOWN without searching deeper;
//   - determinism: verdicts and waveforms are bit-identical across thread
//     counts;
//   - caching: the XCheck artifact is served from the artifact cache on a
//     warm re-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/ternary.hpp"

#include "common/parallel.hpp"
#include "core/flow.hpp"
#include "core/hier_flow.hpp"
#include "core/pipeline.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/distributed.hpp"
#include "fsm/hierarchical.hpp"
#include "fsm/network.hpp"
#include "fsm/signal_opt.hpp"
#include "logic/cover.hpp"
#include "logic/cube.hpp"
#include "rtl/verilog.hpp"
#include "sched/scheduled_dfg.hpp"
#include "synth/extract.hpp"
#include "tau/library.hpp"
#include "verify/dcs_check.hpp"
#include "verify/lowering.hpp"
#include "verify/xprop_check.hpp"

namespace tauhls::verify {
namespace {

using dfg::ResourceClass;
using sched::Allocation;

fsm::DistributedControlUnit fig2Dcu() {
  const sched::ScheduledDfg s = sched::scheduleAndBind(
      dfg::paperFig2(),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  return fsm::optimizeSignals(fsm::buildDistributed(s));
}

core::FlowConfig regionFlowConfig() {
  core::FlowConfig cfg;
  cfg.allocation = dfg::firIirLoopAllocation();
  cfg.synthesizeArea = false;
  return cfg;
}

/// Error/warning codes of a report.
std::set<std::string> errorCodes(const Report& r) {
  std::set<std::string> out;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.severity != Severity::Info) out.insert(d.code);
  }
  return out;
}

const XpropPropertyStat* rowOf(const std::vector<XpropPropertyStat>& rows,
                               const std::string& rule) {
  for (const XpropPropertyStat& r : rows) {
    if (r.rule == rule) return &r;
  }
  return nullptr;
}

// ---- clean sweeps ----------------------------------------------------------

TEST(XpropClean, AllPaperBenchmarksBothStrategiesBothEncodings) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (const sched::BindingStrategy strategy :
         {sched::BindingStrategy::LeftEdge,
          sched::BindingStrategy::CliqueCover}) {
      for (const synth::EncodingStyle style :
           {synth::EncodingStyle::Binary, synth::EncodingStyle::OneHot}) {
        const sched::ScheduledDfg s = sched::scheduleAndBind(
            b.graph, b.allocation, tau::paperLibrary(), strategy);
        const fsm::DistributedControlUnit dcu =
            fsm::optimizeSignals(fsm::buildDistributed(s));
        const std::string label =
            b.name + " strategy " + std::to_string(static_cast<int>(strategy)) +
            (style == synth::EncodingStyle::OneHot ? " onehot" : " binary");

        XprOptions xo;
        xo.style = style;
        Report report;
        const XpropStats xs = checkXprop(dcu, "dcu " + s.graph.name(), report, xo);
        EXPECT_FALSE(report.hasErrors()) << label << ":\n" << renderText(report);
        EXPECT_EQ(xs.resetDepth, 1) << label;
        EXPECT_TRUE(report.has("XPR004")) << label;
        const XpropPropertyStat* xpr1 = rowOf(xs.properties, "XPR001");
        const XpropPropertyStat* xpr2 = rowOf(xs.properties, "XPR002");
        ASSERT_NE(xpr1, nullptr) << label;
        ASSERT_NE(xpr2, nullptr) << label;
        EXPECT_EQ(xpr1->verdict, "PROVED") << label;
        EXPECT_EQ(xpr2->verdict, "PROVED") << label;
        EXPECT_GT(xs.instances, 0u) << label;
        EXPECT_GT(xs.gateEvals, 0u) << label;

        DcsOptions dco;
        dco.style = style;
        Report dcsReport;
        const DcsStats ds = checkDcs(dcu, "dcu " + s.graph.name(), dcsReport, dco);
        EXPECT_FALSE(dcsReport.hasErrors())
            << label << ":\n" << renderText(dcsReport);
        EXPECT_GT(ds.functionsChecked, 0u) << label;
        for (const XpropPropertyStat& p : ds.properties) {
          EXPECT_EQ(p.verdict, "PROVED") << label << " " << p.rule;
        }
      }
    }
  }
}

TEST(XpropClean, ComposedFirIirLoopProvesXpr003) {
  const core::HierFlowResult r =
      core::runHierFlow(dfg::firIirLoop(), regionFlowConfig());
  Report report;
  const XpropStats xs = checkXpropHierarchical(
      r.control, "hier " + r.control.sequencer.name(), report, {});
  EXPECT_FALSE(report.hasErrors()) << renderText(report);
  const XpropPropertyStat* xpr3 = rowOf(xs.properties, "XPR003");
  ASSERT_NE(xpr3, nullptr);
  EXPECT_EQ(xpr3->verdict, "PROVED");
  // Every leaf was re-checked under its path anchor.
  EXPECT_TRUE(report.has("XPR004"));

  Report dcsReport;
  DcsStats ds = checkDcsFsm(r.control.sequencer,
                            "sequencer " + r.control.sequencer.name(),
                            dcsReport, {});
  for (const fsm::LeafControl& leaf : r.control.leaves) {
    ds += checkDcs(leaf.dcu, "leaf " + leaf.path, dcsReport, {});
  }
  EXPECT_FALSE(dcsReport.hasErrors()) << renderText(dcsReport);
}

// ---- one lowering of the network cycle ------------------------------------

/// Drives 240 seeded cycles of random C_* inputs through fsm::stepNetwork and
/// through lowering::networkStep evaluated concretely, restarting both every
/// 20 cycles (reset states, cleared latches), and compares per cycle: the
/// decoded next state of every controller, every held latch against every
/// consumer's NetworkConfig latch, the pulse set and the RE_* outputs.
void expectNetworkStepMatchesStepNetwork(
    const fsm::DistributedControlUnit& dcu, synth::EncodingStyle style,
    const std::string& label) {
  aig::Aig g;
  std::map<std::string, aig::Lit> ext;
  for (const std::string& in : dcu.externalInputs) ext[in] = g.addInput(in);
  std::vector<synth::Encoding> encs;
  std::vector<std::vector<aig::Lit>> state;
  for (const fsm::UnitController& c : dcu.controllers) {
    const synth::Encoding& enc =
        encs.emplace_back(synth::encodeStates(c.fsm, style));
    std::vector<aig::Lit>& bits = state.emplace_back();
    for (int b = 0; b < enc.bits; ++b) {
      bits.push_back(g.addInput(c.fsm.name() + ".state" + std::to_string(b)));
    }
  }
  std::map<std::string, aig::Lit> held;
  for (const auto& [sig, users] : dcu.consumersOf) {
    held[sig] = g.addInput(sig + ".held");
  }
  const lowering::NetworkCones cones = lowering::networkStep(
      g, dcu, encs, state, held,
      [&](const std::string& sig) { return ext.at(sig); });

  aig::TernaryEvaluator eval(g);
  std::vector<aig::XWord> inputs(g.numInputs());
  auto drive = [&](aig::Lit in, bool v) {
    inputs[g.inputIndexOf(aig::nodeOf(in))] =
        v ? aig::xAllOne() : aig::xAllZero();
  };
  auto valueOf = [&](aig::Lit l) { return (eval.value(l).one & 1) != 0; };
  auto reOutputs = [](const std::vector<std::string>& outputs) {
    std::set<std::string> out;
    for (const std::string& o : outputs) {
      if (o.starts_with("RE_")) out.insert(o);
    }
    return out;
  };

  std::mt19937_64 rng(0x6e6574);
  fsm::NetworkConfig config;
  std::vector<int> aigStates;
  std::set<std::string> latched;  // the lowered network's held latches
  for (int cycle = 0; cycle < 240; ++cycle) {
    SCOPED_TRACE(label + " cycle " + std::to_string(cycle));
    if (cycle % 20 == 0) {
      config = fsm::initialConfig(dcu);
      aigStates = config.states;
      latched.clear();
    }
    std::unordered_set<std::string> external;
    for (const auto& [sig, lit] : ext) {
      const bool v = (rng() & 1) != 0;
      if (v) external.insert(sig);
      drive(lit, v);
    }
    for (std::size_t c = 0; c < state.size(); ++c) {
      for (std::size_t b = 0; b < state[c].size(); ++b) {
        drive(state[c][b], encs[c].codeBit(aigStates[c], static_cast<int>(b)));
      }
    }
    for (const auto& [sig, lit] : held) drive(lit, latched.contains(sig));
    eval.run(inputs);
    const fsm::NetworkStep step = fsm::stepNetwork(dcu, config, external);

    for (std::size_t c = 0; c < state.size(); ++c) {
      std::uint32_t code = 0;
      for (std::size_t b = 0; b < state[c].size(); ++b) {
        if (valueOf(cones.fns[c][b].second)) code |= std::uint32_t{1} << b;
      }
      aigStates[c] = encs[c].stateOf(code);
      ASSERT_EQ(aigStates[c], step.next.states[c]) << dcu.controllers[c].fsm.name();
      std::vector<std::string> outputs;
      for (std::size_t o = state[c].size(); o < cones.fns[c].size(); ++o) {
        if (valueOf(cones.fns[c][o].second)) {
          outputs.push_back(cones.fns[c][o].first);
        }
      }
      ASSERT_EQ(reOutputs(outputs), reOutputs(step.outputs[c]))
          << dcu.controllers[c].fsm.name();
    }
    std::unordered_set<std::string> pulses;
    for (const auto& [sig, lit] : cones.pulse) {
      ASSERT_EQ(valueOf(lit), valueOf(cones.prevPulse.at(sig))) << sig;
      if (valueOf(lit)) pulses.insert(sig);
    }
    ASSERT_EQ(pulses, step.pulses);
    for (const auto& [sig, lit] : held) {
      if (pulses.contains(sig)) latched.insert(sig);
    }
    for (const auto& [sig, users] : dcu.consumersOf) {
      for (const int c : users) {
        ASSERT_EQ(latched.contains(sig),
                  step.next.latches[static_cast<std::size_t>(c)].contains(sig))
            << sig << " at consumer " << c;
      }
    }
    config = step.next;
  }
}

TEST(NetworkStep, MatchesStepNetwork) {
  std::vector<std::pair<std::string, fsm::DistributedControlUnit>> designs;
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (const sched::BindingStrategy strategy :
         {sched::BindingStrategy::LeftEdge,
          sched::BindingStrategy::CliqueCover}) {
      const sched::ScheduledDfg s = sched::scheduleAndBind(
          b.graph, b.allocation, tau::paperLibrary(), strategy);
      const std::string label =
          b.name + " strategy " + std::to_string(static_cast<int>(strategy));
      const fsm::DistributedControlUnit raw = fsm::buildDistributed(s);
      designs.emplace_back(label + " unoptimized", raw);
      designs.emplace_back(label, fsm::optimizeSignals(raw));
    }
  }
  const core::HierFlowResult r =
      core::runHierFlow(dfg::firIirLoop(), regionFlowConfig());
  for (const fsm::LeafControl& leaf : r.control.leaves) {
    designs.emplace_back("fir_iir_loop leaf " + leaf.path, leaf.dcu);
  }
  for (const auto& [label, dcu] : designs) {
    for (const synth::EncodingStyle style :
         {synth::EncodingStyle::Binary, synth::EncodingStyle::OneHot}) {
      expectNetworkStepMatchesStepNetwork(
          dcu, style,
          label + (style == synth::EncodingStyle::OneHot ? " onehot"
                                                         : " binary"));
    }
  }
}

// ---- mutations -------------------------------------------------------------

TEST(XpropMutation, LatchWithoutResetTripsXpr001) {
  const fsm::DistributedControlUnit dcu = fig2Dcu();
  ASSERT_FALSE(dcu.producerOf.empty());
  XprOptions xo;
  xo.latchesWithoutReset.insert(dcu.producerOf.begin()->first);
  Report report;
  checkXprop(dcu, "dcu fig2", report, xo);
  EXPECT_EQ(errorCodes(report), std::set<std::string>{"XPR001"})
      << renderText(report);
  // The diagnostic carries a decodable per-cycle waveform of the stuck latch.
  const std::string msg = report.withCode("XPR001").front().message;
  EXPECT_NE(msg.find('X'), std::string::npos) << msg;
  EXPECT_NE(msg.find("rst"), std::string::npos) << msg;
}

TEST(XpropMutation, ControllerWithoutStateResetTripsXpr001) {
  const fsm::DistributedControlUnit dcu = fig2Dcu();
  XprOptions xo;
  xo.controllersWithoutStateReset.insert(dcu.controllers.front().fsm.name());
  Report report;
  checkXprop(dcu, "dcu fig2", report, xo);
  EXPECT_TRUE(report.has("XPR001")) << renderText(report);
  EXPECT_FALSE(errorCodes(report).contains("XPR002")) << renderText(report);
}

TEST(XpropMutation, RtlLatchWithoutResetArcTripsXpr002) {
  const fsm::DistributedControlUnit dcu = fig2Dcu();
  // Drop the reset arc from the emitted completion latch: its held register
  // never drains the power-on X, so the RTL diverges from the (correct)
  // network model the moment the model proves determinacy.
  std::string source = rtl::emitPackage(dcu, "tauhls_xprop_top");
  const std::string from = "if (rst || restart)";
  const std::string to = "if (restart)";
  const std::size_t at = source.find(from);
  ASSERT_NE(at, std::string::npos);
  source.replace(at, from.size(), to);
  XprOptions xo;
  xo.rtlOverride = source;
  Report report;
  checkXprop(dcu, "dcu fig2", report, xo);
  EXPECT_EQ(errorCodes(report), std::set<std::string>{"XPR002"})
      << renderText(report);
  const std::string msg = report.withCode("XPR002").front().message;
  EXPECT_NE(msg.find('X'), std::string::npos) << msg;
}

TEST(XpropMutation, SequencerDoneLatchWithoutInitTripsXpr003) {
  const core::HierFlowResult r =
      core::runHierFlow(dfg::firIirLoop(), regionFlowConfig());
  // The *last* region's done latch: its rearm pulse (the sequencer entering
  // that region's activation state) cannot fire while reset pins the
  // sequencer to its initial state, so dropping the rst arc leaves the
  // power-on X in place past every candidate reset window.  (The first
  // region's latch would be masked -- the initial state re-arms it.)
  std::string dn;
  for (const std::string& in : r.control.sequencer.inputs()) {
    if (in.rfind("DN_", 0) == 0) dn = in;
  }
  ASSERT_FALSE(dn.empty());
  XprOptions xo;
  xo.doneLatchesWithoutInit.insert(dn);
  Report report;
  checkXpropHierarchical(r.control, "hier seq", report, xo);
  EXPECT_TRUE(errorCodes(report).contains("XPR003")) << renderText(report);
  const std::string msg = report.withCode("XPR003").front().message;
  EXPECT_NE(msg.find('X'), std::string::npos) << msg;
}

TEST(DcsMutation, DontCareAbusingMinimizerTripsDcs) {
  const fsm::DistributedControlUnit dcu = fig2Dcu();
  // Pick a controller whose binary encoding leaves undecodable codes (state
  // count below 2^bits) -- those codes are exactly the minimizer's
  // don't-care rows.  A "minimizer" that collapses every next-state function
  // to constant 1 steers the machine straight onto the all-ones don't-care
  // code, which is legal only if that row were unreachable.
  const fsm::Fsm* victim = nullptr;
  synth::SynthesizedFsm syn;
  for (const fsm::UnitController& c : dcu.controllers) {
    syn = synth::synthesize(c.fsm, synth::EncodingStyle::Binary);
    if ((std::size_t{1} << syn.flipFlops) > c.fsm.numStates()) {
      victim = &c.fsm;
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "no controller with don't-care rows";
  for (logic::Cover& cover : syn.nextStateLogic) {
    logic::Cover constantOne(cover.numVars());
    constantOne.add(logic::Cube::full(constantOne.numVars()));
    cover = constantOne;
  }
  DcsOptions dco;
  dco.coverOverrides.emplace(victim->name(), syn);
  Report report;
  checkDcs(dcu, "dcu fig2", report, dco);
  EXPECT_TRUE(report.has("DCS001")) << renderText(report);
  // The mutated covers also steer the implemented machine onto a don't-care
  // row, and the BMC counterexample decodes to named states.
  ASSERT_TRUE(report.has("DCS002")) << renderText(report);
  const std::string msg = report.withCode("DCS002").front().message;
  EXPECT_NE(msg.find("cycle 0: state="), std::string::npos) << msg;
}

// AR-lattice under one multiplier gives a 44-state controller: one-hot, its
// states 32..43 live past bit 31 of the state code.  A cover that also sets
// next-state bit `target` in state 40 (which never moves there) differs from
// the specification on state 40's rows alone, and the DCS001
// counterexample must decode to that state.
TEST(DcsMutation, CounterexamplePastBit31NamesTheRightState) {
  const fsm::DistributedControlUnit dcu = fsm::optimizeSignals(
      fsm::buildDistributed(sched::scheduleAndBind(
          dfg::arLattice(),
          Allocation{{ResourceClass::Multiplier, 1}, {ResourceClass::Adder, 1}},
          tau::paperLibrary())));
  const fsm::Fsm* victim = &dcu.controllers.front().fsm;
  for (const fsm::UnitController& c : dcu.controllers) {
    if (c.fsm.numStates() > victim->numStates()) victim = &c.fsm;
  }
  ASSERT_GT(victim->numStates(), 40u) << victim->name();
  const int state = 40;
  std::set<int> successors;
  for (const fsm::Transition* t : victim->transitionsFrom(state)) {
    successors.insert(t->to);
  }
  int target = 0;
  while (successors.contains(target)) ++target;

  synth::SynthesizedFsm syn =
      synth::synthesize(*victim, synth::EncodingStyle::OneHot);
  logic::Cube inState = logic::Cube::full(syn.nextStateLogic[0].numVars());
  inState.setLiteral(state, true);
  syn.nextStateLogic[static_cast<std::size_t>(target)].add(inState);
  DcsOptions dco;
  dco.style = synth::EncodingStyle::OneHot;
  dco.coverOverrides.emplace(victim->name(), syn);
  Report report;
  checkDcsFsm(*victim, "ar-lattice mult1", report, dco);
  ASSERT_TRUE(report.has("DCS001")) << renderText(report);
  const Diagnostic& d = report.withCode("DCS001").front();
  EXPECT_EQ(d.where, "ns" + std::to_string(target));
  EXPECT_NE(d.message.find("state=" + victim->stateName(state) + ","),
            std::string::npos)
      << d.message;
}

TEST(DcsBudget, ExhaustedBudgetAtPositiveDepthClosesUnknown) {
  // With no conflicts to spend, depth 0 refutes structurally (the initial
  // state is a care row) and the k = 1 induction step, the first query that
  // needs a conflict, closes DCS002 UNKNOWN: no deeper search, no
  // certification.
  const fsm::DistributedControlUnit dcu = fig2Dcu();
  DcsOptions dco;
  dco.maxConflicts = 0;
  Report report;
  const DcsStats stats = checkDcs(dcu, "dcu fig2", report, dco);
  std::size_t rows = 0;
  for (const XpropPropertyStat& p : stats.properties) {
    if (p.rule != "DCS002") continue;
    ++rows;
    EXPECT_EQ(p.verdict, "UNKNOWN") << p.artifact;
    EXPECT_EQ(p.depth, -1) << p.artifact;
    EXPECT_EQ(p.cexCycle, -1) << p.artifact;
    EXPECT_EQ(p.cost.queries, 2u) << p.artifact;
  }
  EXPECT_EQ(rows, dcu.controllers.size());
  EXPECT_FALSE(report.has("DCS002")) << renderText(report);
  EXPECT_FALSE(report.has("DCS003")) << renderText(report);
}

// ---- determinism -----------------------------------------------------------

TEST(XpropDeterminism, BitIdenticalAcrossThreadCounts) {
  const fsm::DistributedControlUnit dcu = fig2Dcu();
  std::vector<XpropStats> stats;
  std::vector<Report> reports;
  for (const int threads : {1, 2, 8}) {
    common::setGlobalThreadCount(threads);
    Report report;
    stats.push_back(checkXprop(dcu, "dcu fig2", report, {}));
    reports.push_back(report);
  }
  common::setGlobalThreadCount(common::configuredThreadCount());
  EXPECT_EQ(stats[0], stats[1]);
  EXPECT_EQ(stats[0], stats[2]);
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

// ---- caching ---------------------------------------------------------------

TEST(XpropCache, XCheckArtifactServedFromCacheOnRerun) {
  const dfg::Dfg graph = dfg::paperFig2();
  core::FlowConfig cfg;
  cfg.allocation = Allocation{{ResourceClass::Multiplier, 2},
                              {ResourceClass::Adder, 1}};
  const auto cache = std::make_shared<core::ArtifactCache>();

  core::FlowPipeline cold(graph, cfg, cache);
  const XCheckArtifact first =
      cold.get<XCheckArtifact>(core::Artifact::XCheck);
  EXPECT_FALSE(first.report.hasErrors()) << renderText(first.report);
  const core::CacheStats coldStats = cache->stats();
  EXPECT_GT(coldStats.misses, 0u);

  core::FlowPipeline warm(graph, cfg, cache);
  const XCheckArtifact second =
      warm.get<XCheckArtifact>(core::Artifact::XCheck);
  const core::CacheStats warmStats = cache->stats();
  EXPECT_EQ(warmStats.misses, coldStats.misses) << "warm run recomputed a pass";
  EXPECT_GT(warmStats.hits, coldStats.hits);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace tauhls::verify
