// Property and mutation tests for the static design-rule checker (src/verify/).
//
// Two families:
//   - properties: every paper benchmark, under both binding strategies and
//     with/without signal optimization, verifies clean end to end;
//   - mutations: a deliberately broken artifact of each class (dropped
//     schedule arc, double-booked unit, deleted FSM transition, rewired
//     completion guard, shorted/undriven RTL nets) triggers exactly the
//     expected rule code.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/flow.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/signal.hpp"
#include "fsm/signal_opt.hpp"
#include "netlist/build.hpp"
#include "netlist/netlist.hpp"
#include "rtl/verilog.hpp"
#include "sched/scheduled_dfg.hpp"
#include "tau/library.hpp"
#include "testutil.hpp"
#include "verify/dfg_lint.hpp"
#include "verify/diagnostic.hpp"
#include "verify/fsm_check.hpp"
#include "verify/model_check.hpp"
#include "verify/netlist_check.hpp"
#include "verify/sched_lint.hpp"
#include "verify/verify.hpp"
#include "vsim/parser.hpp"

namespace tauhls::verify {
namespace {

using dfg::ResourceClass;
using sched::Allocation;

sched::ScheduledDfg fig2Scheduled() {
  return sched::scheduleAndBind(dfg::paperFig2(),
                                Allocation{{ResourceClass::Multiplier, 2},
                                           {ResourceClass::Adder, 1}},
                                tau::paperLibrary());
}

/// Rebuild `g` with every literal of signal `from` renamed to `to`.  A pure
/// renaming preserves the completeness/determinism partition of a state's
/// outgoing guards, so the mutated machine stays well-formed.
fsm::Guard renameInGuard(const fsm::Guard& g, const std::string& from,
                         const std::string& to) {
  fsm::Guard out = fsm::Guard::never();
  for (const fsm::GuardTerm& term : g.terms()) {
    fsm::Guard product = fsm::Guard::always();
    for (const auto& [sig, positive] : term.literals) {
      product = product.conjoin(
          fsm::Guard::literal(sig == from ? to : sig, positive));
    }
    out = out.disjoin(product);
  }
  return out;
}

/// Copy `src` with input signal `from` renamed to `to` in declarations and
/// every guard.
fsm::Fsm renameFsmInput(const fsm::Fsm& src, const std::string& from,
                        const std::string& to) {
  fsm::Fsm out(src.name());
  for (std::size_t s = 0; s < src.numStates(); ++s) {
    out.addState(src.stateName(static_cast<int>(s)));
  }
  for (const std::string& in : src.inputs()) {
    out.addInput(in == from ? to : in);
  }
  for (const std::string& o : src.outputs()) out.addOutput(o);
  for (const fsm::Transition& t : src.transitions()) {
    out.addTransition(t.from, t.to, renameInGuard(t.guard, from, to),
                      t.outputs);
  }
  out.setInitial(src.initial());
  return out;
}

/// In-place: rewire controller `idx` of `dcu` to wait on `to` wherever it
/// waited on `from` (guards, declared inputs, completion latches).
void rewireWait(fsm::DistributedControlUnit& dcu, std::size_t idx,
                const std::string& from, const std::string& to) {
  fsm::UnitController& ctl = dcu.controllers[idx];
  ctl.fsm = renameFsmInput(ctl.fsm, from, to);
  for (std::string& sig : ctl.latchedInputs) {
    if (sig == from) sig = to;
  }
  std::sort(ctl.latchedInputs.begin(), ctl.latchedInputs.end());
  ctl.latchedInputs.erase(
      std::unique(ctl.latchedInputs.begin(), ctl.latchedInputs.end()),
      ctl.latchedInputs.end());
}

/// Index of the controller latching `signal`; -1 when none does.
int consumerOf(const fsm::DistributedControlUnit& dcu,
               const std::string& signal) {
  for (std::size_t i = 0; i < dcu.controllers.size(); ++i) {
    const auto& latched = dcu.controllers[i].latchedInputs;
    if (std::find(latched.begin(), latched.end(), signal) != latched.end()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Copy `src` without transition number `drop`.
fsm::Fsm withoutTransition(const fsm::Fsm& src, std::size_t drop) {
  fsm::Fsm out(src.name());
  for (std::size_t s = 0; s < src.numStates(); ++s) {
    out.addState(src.stateName(static_cast<int>(s)));
  }
  for (const std::string& in : src.inputs()) out.addInput(in);
  for (const std::string& o : src.outputs()) out.addOutput(o);
  for (std::size_t i = 0; i < src.transitions().size(); ++i) {
    if (i == drop) continue;
    const fsm::Transition& t = src.transitions()[i];
    out.addTransition(t.from, t.to, t.guard, t.outputs);
  }
  out.setInitial(src.initial());
  return out;
}

/// Two-state machine that is deterministic, complete, and fully live.
fsm::Fsm toyFsm() {
  fsm::Fsm f("toy");
  const int a = f.addState("A");
  const int b = f.addState("B");
  f.addInput("x");
  f.addOutput("go");
  f.addTransition(a, b, fsm::Guard::literal("x", true), {"go"});
  f.addTransition(a, a, fsm::Guard::literal("x", false), {});
  f.addTransition(b, a, fsm::Guard::always(), {});
  f.setInitial(a);
  return f;
}

// ---- diagnostics engine ---------------------------------------------------

TEST(Diagnostics, RegistryIsSortedAndComplete) {
  const std::vector<RuleInfo>& rules = allRules();
  ASSERT_FALSE(rules.empty());
  // Codes are unique, and ascend within each pass family (the registry is
  // grouped in pass order, not globally lexicographic).
  std::set<std::string> seen;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const std::string code = rules[i].code;
    EXPECT_TRUE(seen.insert(code).second) << "duplicate code " << code;
    if (i > 0 && code.substr(0, 3) == std::string(rules[i - 1].code).substr(0, 3)) {
      EXPECT_LT(std::string(rules[i - 1].code), code);
    }
  }
  for (const RuleInfo& r : rules) {
    const RuleInfo* found = findRule(r.code);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->severity, r.severity);
    EXPECT_NE(std::string(r.summary), "");
  }
  EXPECT_EQ(findRule("XYZ999"), nullptr);
}

TEST(Diagnostics, AddResolvesSeverityFromRegistry) {
  Report r;
  r.add("DFG004", "dfg t", "m1", "dead op");
  r.add("SCH003", "sched t", "mult1", "double booked");
  ASSERT_EQ(r.diagnostics().size(), 2u);
  EXPECT_EQ(r.diagnostics()[0].severity, Severity::Warning);
  EXPECT_EQ(r.diagnostics()[1].severity, Severity::Error);
  EXPECT_TRUE(r.hasErrors());
  EXPECT_EQ(r.errorCount(), 1u);
  EXPECT_TRUE(r.has("SCH003"));
  EXPECT_FALSE(r.has("SCH004"));
  EXPECT_EQ(r.withCode("DFG004").size(), 1u);
  EXPECT_THROW(r.add("NOPE01", "x", "", "unregistered"), Error);
}

TEST(Diagnostics, RenderTextErrorsFirstAndSummary) {
  Report r;
  EXPECT_NE(renderText(r).find("clean"), std::string::npos);
  r.add("DFG004", "dfg t", "m1", "dead op");
  r.add("SCH003", "sched t", "mult1", "double booked");
  const std::string text = renderText(r);
  EXPECT_LT(text.find("SCH003"), text.find("DFG004"));
  EXPECT_NE(text.find("1 error, 1 warning"), std::string::npos);
}

TEST(Diagnostics, RenderJsonShape) {
  Report r;
  r.add("NET002", "rtl \"top\"", "a\nb", "undriven");
  const std::string json = renderJson(r);
  EXPECT_NE(json.find("\"code\":\"NET002\""), std::string::npos);
  EXPECT_NE(json.find("\\\"top\\\""), std::string::npos);
  EXPECT_NE(json.find("a\\nb"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":0"), std::string::npos);
}

// ---- properties: the real flow artifacts verify clean ---------------------

TEST(VerifyClean, AllPaperBenchmarksBothStrategies) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (const sched::BindingStrategy strategy :
         {sched::BindingStrategy::LeftEdge,
          sched::BindingStrategy::CliqueCover}) {
      const sched::ScheduledDfg s = sched::scheduleAndBind(
          b.graph, b.allocation, tau::paperLibrary(), strategy);
      const fsm::DistributedControlUnit dcu =
          fsm::optimizeSignals(fsm::buildDistributed(s));
      const fsm::Fsm cent = fsm::buildCentSync(s);
      VerifyOptions vo;
      vo.requestedAllocation = &b.allocation;
      vo.centSync = &cent;
      const Report report = verifyFlow(s, dcu, vo);
      EXPECT_FALSE(report.hasErrors())
          << b.name << " strategy " << static_cast<int>(strategy) << ":\n"
          << renderText(report);
    }
  }
}

TEST(VerifyClean, UnoptimizedControllersVerifyClean) {
  // Without Fig.-7 signal pruning every CCO_* stays a controller output; the
  // emitted top must not grow dangling pulse wires (regression: the emitter
  // used to declare a _pulse wire even for unconsumed signals -> NET007).
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const vsim::Design design =
      vsim::parseDesign(rtl::emitPackage(dcu, "fig2_ctrl"));
  Report report;
  lintRtl(design, report);
  EXPECT_FALSE(report.hasErrors()) << renderText(report);
  EXPECT_FALSE(report.has("NET007")) << renderText(report);
  EXPECT_FALSE(report.has("NET002")) << renderText(report);
}

TEST(VerifyClean, FlowGateReportsCleanDiagnostics) {
  core::FlowConfig cfg;
  cfg.allocation = {{ResourceClass::Multiplier, 2},
                    {ResourceClass::Adder, 1},
                    {ResourceClass::Subtractor, 1}};
  const core::FlowResult r = core::runFlow(dfg::diffeq(), cfg);
  EXPECT_FALSE(r.diagnostics.hasErrors()) << renderText(r.diagnostics);
}

// ---- DFG mutations --------------------------------------------------------

TEST(DfgLint, RedundantScheduleArcIsDFG005) {
  dfg::Dfg g = test::diamond();
  // s already data-depends on m1; the arc restates it.
  g.addScheduleArc(g.findByName("m1"), g.findByName("s"));
  Report report;
  lintDfg(g, report);
  EXPECT_TRUE(report.has("DFG005")) << renderText(report);
}

TEST(DfgLint, DeadOpAndUnusedInput) {
  dfg::Dfg g = test::diamond();
  const dfg::NodeId a = g.findByName("a");
  const dfg::NodeId b = g.findByName("b");
  g.addOp(dfg::OpKind::Mul, {a, b}, "dead");
  g.addInput("z");
  Report report;
  lintDfg(g, report);
  EXPECT_TRUE(report.has("DFG004")) << renderText(report);
  EXPECT_TRUE(report.has("DFG007")) << renderText(report);
  EXPECT_FALSE(report.hasErrors()) << renderText(report);
}

// ---- schedule / binding mutations -----------------------------------------

TEST(SchedLint, DroppedSerializationArcIsSCH008) {
  const sched::ScheduledDfg s = sched::scheduleAndBind(
      dfg::fir(3),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  ASSERT_FALSE(s.graph.scheduleArcs().empty());
  bool caught = false;
  for (std::size_t drop = 0;
       drop < s.graph.scheduleArcs().size() && !caught; ++drop) {
    sched::ScheduledDfg mutated = s;
    const std::vector<dfg::ScheduleArc> arcs = mutated.graph.scheduleArcs();
    mutated.graph.clearScheduleArcs();
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if (i != drop) mutated.graph.addScheduleArc(arcs[i].from, arcs[i].to);
    }
    Report report;
    lintSchedule(mutated, nullptr, report);
    caught = report.has("SCH008");
  }
  EXPECT_TRUE(caught)
      << "no dropped serialization arc produced SCH008 on fir(3)";
}

TEST(SchedLint, DoubleBookedUnitIsSCH003) {
  sched::ScheduledDfg s = fig2Scheduled();
  // Fig. 2(a) step T0 holds the two independent mults O0 and O3; forcing
  // both onto O0's unit double-books it in that step.
  const dfg::NodeId o0 = s.graph.findByName("O0");
  const dfg::NodeId o3 = s.graph.findByName("O3");
  ASSERT_EQ(s.steps.stepOf[o0], s.steps.stepOf[o3]);
  const int target = s.binding.unitOf(o0);
  ASSERT_NE(target, s.binding.unitOf(o3));
  sched::Binding mutated;
  for (const sched::UnitInstance& u : s.binding.units()) {
    mutated.addUnit(u.cls, u.index);
  }
  for (int unit = 0; unit < static_cast<int>(s.binding.numUnits()); ++unit) {
    for (const dfg::NodeId op : s.binding.sequenceOf(unit)) {
      if (op == o3) continue;
      mutated.assign(op, unit);
      if (op == o0) mutated.assign(o3, target);
    }
  }
  s.binding = mutated;
  Report report;
  lintSchedule(s, nullptr, report);
  EXPECT_TRUE(report.has("SCH003")) << renderText(report);
}

TEST(SchedLint, WrongClassBindingIsSCH002) {
  sched::ScheduledDfg s = fig2Scheduled();
  const dfg::NodeId o1 = s.graph.findByName("O1");  // an addition
  sched::Binding mutated;
  for (const sched::UnitInstance& u : s.binding.units()) {
    mutated.addUnit(u.cls, u.index);
  }
  int multUnit = -1;
  for (int unit = 0; unit < static_cast<int>(s.binding.numUnits()); ++unit) {
    if (s.binding.unit(unit).cls == ResourceClass::Multiplier) multUnit = unit;
  }
  ASSERT_GE(multUnit, 0);
  for (int unit = 0; unit < static_cast<int>(s.binding.numUnits()); ++unit) {
    for (const dfg::NodeId op : s.binding.sequenceOf(unit)) {
      mutated.assign(op, op == o1 ? multUnit : unit);
    }
  }
  s.binding = mutated;
  Report report;
  lintSchedule(s, nullptr, report);
  EXPECT_TRUE(report.has("SCH002")) << renderText(report);
}

TEST(SchedLint, MissingControlStepIsSCH011) {
  sched::ScheduledDfg s = fig2Scheduled();
  s.steps.stepOf[s.graph.findByName("O1")] = -1;
  Report report;
  lintSchedule(s, nullptr, report);
  EXPECT_TRUE(report.has("SCH011")) << renderText(report);
}

TEST(SchedLint, RegisterAllocationOfBenchmarksIsClean) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    const sched::ScheduledDfg s = sched::scheduleAndBind(
        b.graph, b.allocation, tau::paperLibrary());
    Report report;
    lintRegisterAllocation(s, report);
    EXPECT_FALSE(report.hasErrors()) << b.name << ":\n" << renderText(report);
  }
}

// ---- FSM mutations --------------------------------------------------------

TEST(FsmCheck, WellFormedMachineIsClean) {
  Report report;
  checkFsm(toyFsm(), report);
  EXPECT_TRUE(report.diagnostics().empty()) << renderText(report);
}

TEST(FsmCheck, DeletedTransitionIsFSM003WithWitness) {
  const fsm::Fsm f = toyFsm();
  // Delete the x=0 self-loop on A: the assignment x=0 then enables nothing.
  std::size_t drop = f.transitions().size();
  for (std::size_t i = 0; i < f.transitions().size(); ++i) {
    const fsm::Transition& t = f.transitions()[i];
    if (t.from == 0 && t.to == 0) drop = i;
  }
  ASSERT_LT(drop, f.transitions().size());
  Report report;
  checkFsm(withoutTransition(f, drop), report);
  ASSERT_TRUE(report.has("FSM003")) << renderText(report);
  EXPECT_NE(report.withCode("FSM003")[0].message.find("x"),
            std::string::npos);
}

TEST(FsmCheck, DeletedControllerTransitionIsFSM003) {
  // The same mutation on a real Algorithm-1 controller: drop a completing
  // transition of the first multi-transition machine.
  const fsm::DistributedControlUnit dcu =
      fsm::buildDistributed(fig2Scheduled());
  for (const fsm::UnitController& ctl : dcu.controllers) {
    if (ctl.fsm.transitions().size() < 2) continue;
    Report report;
    checkFsm(withoutTransition(ctl.fsm, 0), report);
    EXPECT_TRUE(report.has("FSM003") || report.has("FSM002"))
        << ctl.fsm.name() << ":\n" << renderText(report);
    return;
  }
  FAIL() << "no multi-transition controller in fig2";
}

TEST(FsmCheck, OverlappingGuardsAreFSM004) {
  fsm::Fsm f = toyFsm();
  f.addTransition(0, 1, fsm::Guard::literal("x", true), {});
  Report report;
  checkFsm(f, report);
  EXPECT_TRUE(report.has("FSM004")) << renderText(report);
}

TEST(FsmCheck, StructuralRules) {
  fsm::Fsm f = toyFsm();
  const int c = f.addState("C");       // unreachable, no outgoing
  f.addInput("y");                     // read by no guard
  f.addOutput("dead");                 // never asserted
  f.addTransition(1, 1, fsm::Guard::never(), {});  // can never fire
  Report report;
  checkFsm(f, report);
  EXPECT_TRUE(report.has("FSM001")) << renderText(report);
  EXPECT_TRUE(report.has("FSM002")) << renderText(report);
  EXPECT_TRUE(report.has("FSM005")) << renderText(report);
  EXPECT_TRUE(report.has("FSM006")) << renderText(report);
  EXPECT_TRUE(report.has("FSM007")) << renderText(report);
  EXPECT_EQ(f.stateName(c), "C");
}

TEST(FsmCheck, GuardHelpers) {
  const fsm::Guard x = fsm::Guard::literal("x", true);
  const fsm::Guard notX = fsm::Guard::literal("x", false);
  EXPECT_FALSE(guardsOverlap(x, notX));
  EXPECT_TRUE(guardsOverlap(x, fsm::Guard::always()));
  EXPECT_TRUE(guardsOverlap(fsm::Guard::allOf({"a", "b"}),
                            fsm::Guard::notAllOf({"b", "c"})));

  std::map<std::string, bool> witness;
  EXPECT_TRUE(termsAreTautology(
      {x.terms()[0], notX.terms()[0]}, nullptr));
  EXPECT_FALSE(termsAreTautology({x.terms()[0]}, &witness));
  EXPECT_EQ(witness.at("x"), false);
}

// ---- model-check mutations ------------------------------------------------

TEST(ModelCheck, BenchmarkControllersAreDeadlockFree) {
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  const fsm::Fsm cent = fsm::buildCentSync(s);
  Report report;
  modelCheckControllers(dcu, s, cent, report);
  EXPECT_FALSE(report.hasErrors()) << renderText(report);
  EXPECT_FALSE(report.has("MDL007")) << renderText(report);
}

TEST(ModelCheck, CircularWaitIsMDL002) {
  const sched::ScheduledDfg s = fig2Scheduled();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  // O1 (adder) waits on CCO_O0; O2 (a mult) waits on CCO_O1.  Rewiring the
  // adder to wait on CCO_O2 instead closes the cycle O1 -> O2 -> O1: neither
  // controller can ever complete its iteration.
  const int adder = consumerOf(dcu, "CCO_O0");
  ASSERT_GE(adder, 0);
  ASSERT_TRUE(dcu.producerOf.contains("CCO_O2"));
  ASSERT_NE(dcu.producerOf.at("CCO_O2"), adder);
  rewireWait(dcu, static_cast<std::size_t>(adder), "CCO_O0", "CCO_O2");
  Report report;
  modelCheckDistributed(dcu, s, report);
  EXPECT_TRUE(report.has("MDL002")) << renderText(report);
}

TEST(ModelCheck, DroppedPredecessorWaitIsMDL004) {
  const sched::ScheduledDfg s = fig2Scheduled();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  // Rewire the adder to wait on CCO_O3 (the other first-step mult) instead
  // of its true data predecessor O0: on runs where O3's unit finishes short
  // while O0's runs long, O1 completes before O0 -- a causality violation.
  const int adder = consumerOf(dcu, "CCO_O0");
  ASSERT_GE(adder, 0);
  rewireWait(dcu, static_cast<std::size_t>(adder), "CCO_O0", "CCO_O3");
  Report report;
  modelCheckDistributed(dcu, s, report);
  EXPECT_TRUE(report.has("MDL004")) << renderText(report);
  EXPECT_FALSE(report.has("MDL002")) << renderText(report);
}

TEST(ModelCheck, MismatchedBaselineIsMDL006) {
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  const sched::ScheduledDfg other = sched::scheduleAndBind(
      dfg::fir(3),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  const fsm::Fsm wrongBaseline = fsm::buildCentSync(other);
  Report report;
  modelCheckControllers(dcu, s, wrongBaseline, report);
  EXPECT_TRUE(report.has("MDL006")) << renderText(report);
}

TEST(ModelCheck, ExceededBoundDegradesToMDL007) {
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  ModelCheckOptions options;
  options.maxStates = 1;
  Report report;
  modelCheckDistributed(dcu, s, report, options);
  EXPECT_TRUE(report.has("MDL007")) << renderText(report);
  EXPECT_FALSE(report.hasErrors()) << renderText(report);
}

// ---- netlist / RTL mutations ----------------------------------------------

TEST(NetlistLint, DeadGateAndUnusedInput) {
  netlist::Netlist net("toy");
  const netlist::NetId a = net.addInput("a");
  const netlist::NetId b = net.addInput("b");
  net.addInput("unused");
  net.addAnd({a, b});  // drives nothing, never marked output
  const netlist::NetId keep = net.addOr({a, b});
  net.markOutput("y", keep);
  Report report;
  lintNetlist(net, report);
  EXPECT_TRUE(report.has("NET006")) << renderText(report);
  EXPECT_TRUE(report.has("NET007")) << renderText(report);
}

TEST(NetlistLint, ControllerNetlistsAreClean) {
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(fig2Scheduled()));
  std::vector<netlist::ControllerNetlist> netlists;
  for (const fsm::UnitController& ctl : dcu.controllers) {
    netlists.push_back(netlist::buildControllerNetlist(ctl.fsm));
  }
  Report report;
  checkControlLoops(dcu, netlists, "fig2", report);
  EXPECT_FALSE(report.has("NET001")) << renderText(report);
}

TEST(RtlLint, UndrivenNetIsNET002) {
  const vsim::Design d = vsim::parseDesign(
      "module t (\n"
      "  input  wire a,\n"
      "  output wire y\n"
      ");\n"
      "  wire floating;\n"
      "  assign y = a & floating;\n"
      "endmodule\n");
  Report report;
  lintRtl(d, report);
  ASSERT_TRUE(report.has("NET002")) << renderText(report);
  EXPECT_EQ(report.withCode("NET002")[0].where, "floating");
}

TEST(RtlLint, ShortedNetIsNET003) {
  const vsim::Design d = vsim::parseDesign(
      "module t (\n"
      "  input  wire a,\n"
      "  input  wire b,\n"
      "  output wire y\n"
      ");\n"
      "  assign y = a;\n"
      "  assign y = b;\n"
      "endmodule\n");
  Report report;
  lintRtl(d, report);
  ASSERT_TRUE(report.has("NET003")) << renderText(report);
  EXPECT_EQ(report.withCode("NET003")[0].where, "y");
}

TEST(RtlLint, CombinationalCycleIsNET001) {
  const vsim::Design d = vsim::parseDesign(
      "module t (\n"
      "  input  wire a,\n"
      "  output wire y\n"
      ");\n"
      "  wire p;\n"
      "  wire q;\n"
      "  assign p = q & a;\n"
      "  assign q = p;\n"
      "  assign y = q;\n"
      "endmodule\n");
  Report report;
  lintRtl(d, report);
  EXPECT_TRUE(report.has("NET001")) << renderText(report);
}

TEST(RtlLint, UnknownModuleIsNET005) {
  const vsim::Design d = vsim::parseDesign(
      "module t (\n"
      "  input  wire a,\n"
      "  output wire y\n"
      ");\n"
      "  ghost u_g (\n"
      "    .p(a), .q(y)\n"
      "  );\n"
      "endmodule\n");
  Report report;
  lintRtl(d, report);
  EXPECT_TRUE(report.has("NET005")) << renderText(report);
}

TEST(RtlLint, ConstantTooWideIsNET004) {
  const vsim::Design d = vsim::parseDesign(
      "module t (\n"
      "  input  wire a,\n"
      "  output reg  y\n"
      ");\n"
      "  reg [1:0] state;\n"
      "  always @* begin\n"
      "    if (state == 2'd3) y = a;\n"
      "    else y = 1'b0;\n"
      "    state = 2'd1;\n"
      "    if (a == 1'b1) state = 3'd7;\n"
      "  end\n"
      "endmodule\n");
  Report report;
  lintRtl(d, report);
  ASSERT_TRUE(report.has("NET004")) << renderText(report);
  EXPECT_EQ(report.withCode("NET004")[0].where, "state");
}

TEST(RtlLint, MalformedGateIsNET008) {
  const vsim::Design d = vsim::parseDesign(
      "module t (\n"
      "  input  wire a,\n"
      "  output wire y\n"
      ");\n"
      "  and g1 (y, a);\n"
      "endmodule\n");
  Report report;
  lintRtl(d, report);
  EXPECT_TRUE(report.has("NET008")) << renderText(report);
}

TEST(RtlLint, EmittedPackagesAreCleanForAllBenchmarks) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    const sched::ScheduledDfg s = sched::scheduleAndBind(
        b.graph, b.allocation, tau::paperLibrary());
    const fsm::DistributedControlUnit dcu =
        fsm::optimizeSignals(fsm::buildDistributed(s));
    const vsim::Design design = vsim::parseDesign(
        rtl::emitPackage(dcu, "tauhls_" + s.graph.name() + "_ctrl"));
    Report report;
    lintRtl(design, report);
    EXPECT_FALSE(report.hasErrors()) << b.name << ":\n" << renderText(report);
  }
}

}  // namespace
}  // namespace tauhls::verify
