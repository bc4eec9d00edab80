// Tests for the symbolic model checker (verify/symbolic_check.hpp), the
// BMC + k-induction engine it shares with DCS002 (verify/induction.hpp) and
// the sequential unrolling machinery both are built on (aig/unroll.hpp).
//
// Three families:
//   - unroller and engine: BMC and k-induction on tiny hand-built sequential
//     circuits -- a proof with its k, a decoded counterexample, and a
//     conflict budget running out after the first refuted frames;
//   - engine agreement: on every paper benchmark under both binding
//     strategies the symbolic and explicit engines report the same MDL
//     verdict set (both clean), and every safety property closes by
//     k-induction with a PROVED verdict;
//   - mutations: rewired completion waits produce BMC counterexamples with
//     decodable per-cycle waveforms, matching the explicit engine's codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/sat.hpp"
#include "aig/unroll.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/guard.hpp"
#include "fsm/signal_opt.hpp"
#include "sched/scheduled_dfg.hpp"
#include "tau/library.hpp"
#include "verify/diagnostic.hpp"
#include "verify/induction.hpp"
#include "verify/model_check.hpp"
#include "verify/symbolic_check.hpp"

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

/// Error/warning rule codes of a report (the verdict set both engines must
/// agree on; MDL007 is excluded -- it only marks the explicit engine giving
/// up, which is exactly what the symbolic engine retires).
std::set<std::string> verdictCodes(const Report& r) {
  std::set<std::string> out;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.severity == Severity::Info) continue;
    if (d.code == "MDL007") continue;
    out.insert(d.code);
  }
  return out;
}

const SymbolicProperty& propertyOf(const SymbolicArtifact& a,
                                   const std::string& rule) {
  for (const SymbolicProperty& p : a.stats.properties) {
    if (p.rule == rule) return p;
  }
  ADD_FAILURE() << "no property " << rule;
  static SymbolicProperty none;
  return none;
}

// ---- unroller -------------------------------------------------------------

TEST(Unroller, BmcReachesCounterTarget) {
  // 2-bit counter from 00: next0 = !b0, next1 = b0 ^ b1.  The state 11 is
  // reachable exactly at frame 3.
  aig::Aig g;
  const aig::Lit b0 = g.addInput("b0");
  const aig::Lit b1 = g.addInput("b1");
  aig::SeqModel m;
  m.vars.push_back(aig::SeqVar{"b0", b0, aig::negate(b0), false});
  m.vars.push_back(aig::SeqVar{"b1", b1, g.xorLit(b0, b1), false});
  const aig::Lit bad = g.andLit(b0, b1);

  aig::SatSolver solver;
  aig::CnfEncoder enc(g, solver);
  aig::Unroller bmc(g, m, "b", /*initFrame0=*/true);
  for (int depth = 0; depth < 3; ++depth) {
    const int lit = enc.encode(bmc.at(depth, bad));
    EXPECT_EQ(solver.solve(std::vector<int>{lit}), aig::SatResult::Unsat)
        << "depth " << depth;
    solver.addClause({-lit});
  }
  const int lit = enc.encode(bmc.at(3, bad));
  EXPECT_EQ(solver.solve(std::vector<int>{lit}), aig::SatResult::Sat);
}

TEST(Unroller, InductionClosesStuckAtZero) {
  // A register holding its value, initialised 0: "never 1" is 1-inductive.
  aig::Aig g;
  const aig::Lit b = g.addInput("b");
  aig::SeqModel m;
  m.vars.push_back(aig::SeqVar{"b", b, b, false});

  aig::SatSolver solver;
  aig::CnfEncoder enc(g, solver);
  aig::Unroller bmc(g, m, "b", /*initFrame0=*/true);
  aig::Unroller ind(g, m, "i", /*initFrame0=*/false);

  const int base = enc.encode(bmc.at(0, b));
  EXPECT_EQ(solver.solve(std::vector<int>{base}), aig::SatResult::Unsat);

  // Induction step: !b @ frame0, b @ frame1 -- unsatisfiable since next = cur.
  const std::vector<int> step = {-enc.encode(ind.at(0, b)),
                                 enc.encode(ind.at(1, b))};
  EXPECT_EQ(solver.solve(step), aig::SatResult::Unsat);

  // The free frame 0 really is free: b @ frame0 alone is satisfiable.
  EXPECT_EQ(solver.solve(std::vector<int>{enc.encode(ind.at(0, b))}),
            aig::SatResult::Sat);
}

/// state == `code` over `bits` (LSB first).
aig::Lit codeIs(aig::Aig& g, const std::vector<aig::Lit>& bits,
                unsigned code) {
  aig::Lit acc = aig::kLitTrue;
  for (std::size_t b = 0; b < bits.size(); ++b) {
    acc = g.andLit(acc, (code >> b) & 1u ? bits[b] : aig::negate(bits[b]));
  }
  return acc;
}

TEST(Induction, ProvesWithTheClosingK) {
  // Reachable cycle 000 <-> 001; unreachable chain 100 -> 110 -> 111 (bad,
  // absorbing).  100 has no predecessor, so no simple path of three states
  // ends in 111: k = 1 and k = 2 steps are satisfiable, k = 3 closes.
  aig::Aig g;
  const std::vector<aig::Lit> s = {g.addInput("s0"), g.addInput("s1"),
                                   g.addInput("s2")};
  const aig::Lit head = codeIs(g, s, 0b100);
  const aig::Lit chain =
      g.orN({head, codeIs(g, s, 0b110), codeIs(g, s, 0b111)});
  const aig::Lit next0 = g.orLit(codeIs(g, s, 0b000),
                                 g.andLit(chain, aig::negate(head)));
  aig::SeqModel m;
  m.vars.push_back({"s0", s[0], next0, false});
  m.vars.push_back({"s1", s[1], chain, false});
  m.vars.push_back({"s2", s[2], chain, false});
  const aig::Lit bad = codeIs(g, s, 0b111);

  int cexCalls = 0;
  const InductionRun run = proveSafety(
      g, m, {bad}, aig::kLitTrue, /*maxDepth=*/10, /*maxConflicts=*/1000,
      [&](std::size_t, int, const FrameEval&) { ++cexCalls; });
  ASSERT_EQ(run.properties.size(), 1u);
  const InductionResult& r = run.properties.front();
  EXPECT_EQ(r.verdict, PropertyVerdict::Proved);
  EXPECT_EQ(r.inductionK, 3);
  EXPECT_EQ(r.depthReached, 2);
  EXPECT_EQ(r.cexDepth, -1);
  EXPECT_EQ(r.cost.queries, 6u);  // BMC at depths 0..2, steps at k = 1..3
  EXPECT_EQ(cexCalls, 0);
  EXPECT_TRUE(run.invariantHolds);
  EXPECT_EQ(run.invariantCost.queries, 0u);  // no invariant: no base query
}

TEST(Induction, CounterexampleDecodesEveryFrame) {
  // 2-bit counter from 00 stepping only while `en` is high: 11 is first
  // reachable at frame 3, with en = 1 on frames 0..2.
  aig::Aig g;
  const aig::Lit b0 = g.addInput("b0");
  const aig::Lit b1 = g.addInput("b1");
  const aig::Lit en = g.addInput("en");
  aig::SeqModel m;
  m.vars.push_back({"b0", b0, g.xorLit(b0, en), false});
  m.vars.push_back({"b1", b1, g.xorLit(b1, g.andLit(b0, en)), false});
  const aig::Lit bad = g.andLit(b0, b1);

  std::vector<std::string> frames;
  const InductionRun run = proveSafety(
      g, m, {aig::kLitFalse, bad}, aig::kLitTrue, 10, 1000,
      [&](std::size_t p, int depth, const FrameEval& eval) {
        EXPECT_EQ(p, 1u);
        for (int f = 0; f <= depth; ++f) {
          frames.push_back(std::string(eval(f, b1) ? "1" : "0") +
                           (eval(f, b0) ? "1" : "0") + " en=" +
                           (eval(f, en) ? "1" : "0"));
        }
      });
  ASSERT_EQ(run.properties.size(), 2u);
  EXPECT_EQ(run.properties[0].verdict, PropertyVerdict::Proved);
  EXPECT_EQ(run.properties[0].inductionK, 1);
  const InductionResult& r = run.properties[1];
  EXPECT_EQ(r.verdict, PropertyVerdict::Counterexample);
  EXPECT_EQ(r.cexDepth, 3);
  EXPECT_EQ(r.depthReached, 2);
  EXPECT_EQ(r.inductionK, 0);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0], "00 en=1");
  EXPECT_EQ(frames[1], "01 en=1");
  EXPECT_EQ(frames[2], "10 en=1");
  EXPECT_EQ(frames[3].substr(0, 2), "11");
}

TEST(Induction, ExhaustedBudgetClosesUnknownAtTheLastRefutedDepth) {
  // A saturating counter 00 -> 01 -> 10 -> 10 arms, at frame 2, a
  // pigeonhole instance over that frame's free inputs (5 pigeons, 4 holes:
  // unsatisfiable, and far beyond a 10-conflict budget).  Frames 0 and 1
  // refute structurally.  The invariant "c0" fails at reset, which disables
  // induction, so BMC alone goes on -- and runs out of budget at depth 2.
  aig::Aig g;
  const aig::Lit c0 = g.addInput("c0");
  const aig::Lit c1 = g.addInput("c1");
  std::vector<std::vector<aig::Lit>> x(5);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (int j = 0; j < 4; ++j) {
      x[i].push_back(g.addInput("x" + std::to_string(i) + std::to_string(j)));
    }
  }
  std::vector<aig::Lit> php;
  for (std::size_t i = 0; i < x.size(); ++i) php.push_back(g.orN(x[i]));
  for (int j = 0; j < 4; ++j) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t k = i + 1; k < x.size(); ++k) {
        php.push_back(aig::negate(g.andLit(x[i][j], x[k][j])));
      }
    }
  }
  aig::SeqModel m;
  m.vars.push_back({"c0", c0, g.andLit(aig::negate(c0), aig::negate(c1)),
                    false});
  m.vars.push_back({"c1", c1, g.orLit(c0, c1), false});
  const aig::Lit armed = g.andLit(c1, aig::negate(c0));
  const aig::Lit bad = g.andLit(armed, g.andN(php));

  const InductionRun run = proveSafety(
      g, m, {bad}, /*invariant=*/c0, /*maxDepth=*/10, /*maxConflicts=*/10,
      [](std::size_t, int, const FrameEval&) {
        ADD_FAILURE() << "no counterexample exists";
      });
  const InductionResult& res = run.properties.front();
  EXPECT_EQ(res.verdict, PropertyVerdict::Unknown);
  EXPECT_EQ(res.depthReached, 1);
  EXPECT_EQ(res.inductionK, 0);
  // BMC at depths 0..2 and nothing after the exhausted query.
  EXPECT_EQ(res.cost.queries, 3u);
  EXPECT_GT(res.cost.conflicts, 10u);
  EXPECT_FALSE(run.invariantHolds);
  EXPECT_EQ(run.invariantCost.queries, 1u);
}

// ---- engine agreement on clean designs ------------------------------------

TEST(SymbolicClean, AllPaperBenchmarksBothStrategies) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (const sched::BindingStrategy strategy :
         {sched::BindingStrategy::LeftEdge,
          sched::BindingStrategy::CliqueCover}) {
      const sched::ScheduledDfg s = sched::scheduleAndBind(
          b.graph, b.allocation, tau::paperLibrary(), strategy);
      const fsm::DistributedControlUnit dcu =
          fsm::optimizeSignals(fsm::buildDistributed(s));
      const fsm::Fsm cent = fsm::buildCentSync(s);

      Report explicitReport;
      modelCheckControllers(dcu, s, cent, explicitReport);
      const SymbolicArtifact sym = symbolicModelCheck(dcu, s, &cent);

      const std::string label =
          b.name + " strategy " + std::to_string(static_cast<int>(strategy));
      EXPECT_EQ(verdictCodes(explicitReport), verdictCodes(sym.report))
          << label << "\nexplicit:\n"
          << renderText(explicitReport) << "symbolic:\n"
          << renderText(sym.report);
      EXPECT_FALSE(sym.report.hasErrors())
          << label << ":\n" << renderText(sym.report);
      EXPECT_TRUE(sym.stats.invariantHolds) << label;
      EXPECT_TRUE(sym.report.has("MDL008")) << label;
      ASSERT_EQ(sym.stats.properties.size(), 5u) << label;
      for (const SymbolicProperty& p : sym.stats.properties) {
        EXPECT_EQ(p.verdict, PropertyVerdict::Proved)
            << label << " " << p.rule << " "
            << propertyVerdictName(p.verdict) << " depth " << p.depthReached;
        EXPECT_GE(p.inductionK, 1) << label << " " << p.rule;
      }
    }
  }
}

TEST(SymbolicClean, Fig2StatsAreFilled) {
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr);

  EXPECT_EQ(sym.stats.artifact, "product " + s.graph.name());
  EXPECT_EQ(sym.stats.controllers, dcu.controllers.size());
  EXPECT_GT(sym.stats.stateBits, 0u);
  EXPECT_GT(sym.stats.templateNodes, 0u);

  // The proof did real SAT work and it is attributed per rule.
  const auto cost = sym.stats.ruleCost();
  ASSERT_TRUE(cost.contains("MDL001"));
  EXPECT_GT(cost.at("MDL001").queries, 0u);
  ASSERT_TRUE(cost.contains("MDL008"));
  EXPECT_GT(cost.at("MDL008").queries, 0u);

  // Flattened JSON rows mirror the properties.
  const auto rows = sym.stats.jsonStats();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].rule, "MDL001");
  EXPECT_EQ(rows[0].artifact, sym.stats.artifact);
  EXPECT_EQ(rows[0].verdict, std::string("PROVED"));
}

TEST(SymbolicClean, ControllerWiderThan32StatesProves) {
  // One multiplier executes all sixteen products: its one-shot controller
  // has more states than a 32-bit one-hot code holds.
  const sched::ScheduledDfg s = sched::scheduleAndBind(
      dfg::fir(16),
      Allocation{{ResourceClass::Multiplier, 1}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  std::size_t widest = 0;
  for (const fsm::UnitController& c : dcu.controllers) {
    widest = std::max(widest, c.fsm.numStates() + 1);  // + DONE
  }
  ASSERT_GT(widest, 32u);
  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr);
  EXPECT_FALSE(sym.report.hasErrors()) << renderText(sym.report);
  for (const SymbolicProperty& p : sym.stats.properties) {
    EXPECT_EQ(p.verdict, PropertyVerdict::Proved) << p.rule;
  }
}

// ---- mutations produce decodable counterexamples --------------------------

TEST(SymbolicMutation, CircularWaitIsMDL002Cex) {
  const sched::ScheduledDfg s = fig2Scheduled();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const int adder = consumerOf(dcu, "CCO_O0");
  ASSERT_GE(adder, 0);
  rewireWait(dcu, static_cast<std::size_t>(adder), "CCO_O0", "CCO_O2");

  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr);
  EXPECT_TRUE(sym.report.has("MDL002")) << renderText(sym.report);
  EXPECT_EQ(propertyOf(sym, "MDL002").verdict,
            PropertyVerdict::Counterexample);
  const Diagnostic d = sym.report.withCode("MDL002").front();
  EXPECT_NE(d.message.find("BMC counterexample"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("cycle 0:"), std::string::npos) << d.message;

  Report explicitReport;
  modelCheckDistributed(dcu, s, explicitReport);
  EXPECT_EQ(verdictCodes(explicitReport), verdictCodes(sym.report))
      << "explicit:\n" << renderText(explicitReport) << "symbolic:\n"
      << renderText(sym.report);
}

TEST(SymbolicMutation, DroppedPredecessorWaitIsMDL004Cex) {
  const sched::ScheduledDfg s = fig2Scheduled();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const int adder = consumerOf(dcu, "CCO_O0");
  ASSERT_GE(adder, 0);
  rewireWait(dcu, static_cast<std::size_t>(adder), "CCO_O0", "CCO_O3");

  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr);
  EXPECT_TRUE(sym.report.has("MDL004")) << renderText(sym.report);
  EXPECT_FALSE(sym.report.has("MDL002")) << renderText(sym.report);
  const SymbolicProperty& p = propertyOf(sym, "MDL004");
  EXPECT_EQ(p.verdict, PropertyVerdict::Counterexample);
  EXPECT_GE(p.cexLength, 1);
  const Diagnostic d = sym.report.withCode("MDL004").front();
  EXPECT_EQ(d.where, "O1") << d.where;
  EXPECT_NE(d.message.find("data predecessor O0"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("cycle 0:"), std::string::npos) << d.message;

  Report explicitReport;
  modelCheckDistributed(dcu, s, explicitReport);
  EXPECT_EQ(verdictCodes(explicitReport), verdictCodes(sym.report))
      << "explicit:\n" << renderText(explicitReport) << "symbolic:\n"
      << renderText(sym.report);
}

TEST(Symbolic, WrongBaselineIsMDL006) {
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  const sched::ScheduledDfg other = sched::scheduleAndBind(
      dfg::fir(3),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  const fsm::Fsm wrongBaseline = fsm::buildCentSync(other);
  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, &wrongBaseline);
  EXPECT_TRUE(sym.report.has("MDL006")) << renderText(sym.report);
}

TEST(Symbolic, ExhaustedBudgetDegradesToUnknown) {
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  SymbolicCheckOptions options;
  options.maxDepth = -1;  // loop body never runs: every property stays open
  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr, options);
  EXPECT_FALSE(sym.report.hasErrors()) << renderText(sym.report);
  ASSERT_EQ(sym.stats.properties.size(), 5u);
  for (const SymbolicProperty& p : sym.stats.properties) {
    EXPECT_EQ(p.verdict, PropertyVerdict::Unknown) << p.rule;
    EXPECT_EQ(p.depthReached, -1) << p.rule;
  }
  EXPECT_TRUE(sym.report.has("MDL008")) << renderText(sym.report);
}

TEST(Symbolic, ExhaustedBudgetAtPositiveDepthClosesUnknown) {
  // With no conflicts to spend, depth 0 still refutes structurally, and the
  // first query that needs a conflict -- the k = 1 induction step -- closes
  // each property UNKNOWN instead of searching deeper.
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  SymbolicCheckOptions options;
  options.maxConflicts = 0;
  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr, options);
  EXPECT_FALSE(sym.report.hasErrors()) << renderText(sym.report);
  ASSERT_EQ(sym.stats.properties.size(), 5u);
  for (const SymbolicProperty& p : sym.stats.properties) {
    EXPECT_EQ(p.verdict, PropertyVerdict::Unknown) << p.rule;
    EXPECT_EQ(p.depthReached, 0) << p.rule;
    EXPECT_EQ(p.cost.queries, 2u) << p.rule;
  }
  const std::string summary = sym.report.withCode("MDL008").front().message;
  EXPECT_NE(summary.find("0/5 proved"), std::string::npos) << summary;
}

}  // namespace
}  // namespace tauhls::verify
