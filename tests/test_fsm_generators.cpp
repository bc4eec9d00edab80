// Tests for the controller generators: Algorithm 1 (distributed), the
// CENT-SYNC baseline, the product machine (CENT-FSM) and signal optimization.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/network.hpp"
#include "fsm/product.hpp"
#include "fsm/signal.hpp"
#include "fsm/signal_opt.hpp"
#include "testutil.hpp"

namespace tauhls::fsm {
namespace {

using dfg::ResourceClass;
using sched::Allocation;
using sched::BindingStrategy;
using sched::ScheduledDfg;

ScheduledDfg scheduledFig3() {
  return sched::scheduleAndBind(
      dfg::paperFig3(),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 2}},
      tau::paperLibrary(), BindingStrategy::CliqueCover);
}

ScheduledDfg scheduledDiffeq() {
  return sched::scheduleAndBind(dfg::diffeq(),
                                Allocation{{ResourceClass::Multiplier, 2},
                                           {ResourceClass::Adder, 1},
                                           {ResourceClass::Subtractor, 1}},
                                tau::paperLibrary());
}

TEST(Distributed, OneControllerPerUnit) {
  ScheduledDfg s = scheduledDiffeq();
  DistributedControlUnit dcu = buildDistributed(s);
  EXPECT_EQ(dcu.controllers.size(), s.binding.numUnits());
  // External inputs: one completion signal per telescopic unit (2 TAU mults).
  EXPECT_EQ(dcu.externalInputs.size(), 2u);
}

TEST(Distributed, TelescopicControllersHaveSdLdStates) {
  ScheduledDfg s = scheduledDiffeq();
  DistributedControlUnit dcu = buildDistributed(s);
  for (const UnitController& c : dcu.controllers) {
    const bool isMult =
        s.binding.unit(c.unitId).cls == ResourceClass::Multiplier;
    EXPECT_EQ(c.telescopic, isMult);
    // Telescopic: S_i and S_i' per op; fixed: only S_i.
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
      EXPECT_NE(c.fsm.findState("S" + std::to_string(i)), -1);
      EXPECT_EQ(c.fsm.findState("S" + std::to_string(i) + "p") != -1, isMult);
    }
    // C_T input exactly for telescopic controllers.
    const std::string cT = unitCompletionSignal(s.binding.unit(c.unitId));
    const auto& ins = c.fsm.inputs();
    EXPECT_EQ(std::find(ins.begin(), ins.end(), cT) != ins.end(), isMult);
  }
}

TEST(Distributed, ReadyStatesExactlyForOpsWithCrossUnitPreds) {
  ScheduledDfg s = scheduledFig3();
  DistributedControlUnit dcu = buildDistributed(s);
  for (const UnitController& c : dcu.controllers) {
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
      bool hasCrossPred = false;
      for (dfg::NodeId p : s.graph.dataPredecessors(c.ops[i])) {
        if (s.graph.isOp(p) && s.binding.unitOf(p) != c.unitId) {
          hasCrossPred = true;
        }
      }
      EXPECT_EQ(c.fsm.findState("R" + std::to_string(i)) != -1, hasCrossPred)
          << c.fsm.name() << " op " << s.graph.node(c.ops[i]).name;
    }
  }
}

TEST(Distributed, Fig6ControllerShape) {
  // The controller of a TAU multiplier bound with (O0, O1) where O1 waits for
  // O3: five states S0 S0' S1 S1' R1 (paper Fig. 6).
  ScheduledDfg s = scheduledFig3();
  DistributedControlUnit dcu = buildDistributed(s);
  for (const UnitController& c : dcu.controllers) {
    if (c.ops.size() == 2 &&
        s.graph.node(c.ops[0]).name == "O0" &&
        s.graph.node(c.ops[1]).name == "O1") {
      EXPECT_EQ(c.fsm.numStates(), 5u);
      EXPECT_NE(c.fsm.findState("R1"), -1);
      EXPECT_EQ(c.fsm.findState("R0"), -1);  // O0 has no predecessors
      // Initial state is S0 (O0 can start immediately).
      EXPECT_EQ(c.fsm.stateName(c.fsm.initial()), "S0");
      return;
    }
  }
  GTEST_SKIP() << "binding did not produce the (O0,O1) multiplier pairing";
}

TEST(Distributed, SingleTelescopicOpBehaviour) {
  // One TAU unit, one op, no predecessors: S0 --!C--> S0p --1--> S0 (wrap),
  // completing transitions carry OF/RE/CCO.
  dfg::Dfg g = test::parallelMuls(1);
  ScheduledDfg s = sched::scheduleAndBind(
      g, Allocation{{ResourceClass::Multiplier, 1}}, tau::paperLibrary());
  DistributedControlUnit dcu = buildDistributed(s);
  ASSERT_EQ(dcu.controllers.size(), 1u);
  const Fsm& f = dcu.controllers[0].fsm;
  EXPECT_EQ(f.numStates(), 2u);
  // LD path: two cycles.
  auto r1 = f.step(f.findState("S0"), {});
  EXPECT_EQ(r1.nextState, f.findState("S0p"));
  EXPECT_EQ(r1.outputs, (std::vector<std::string>{"OF_m0"}));
  auto r2 = f.step(r1.nextState, {});
  EXPECT_EQ(r2.nextState, f.findState("S0"));
  EXPECT_EQ(r2.outputs,
            (std::vector<std::string>{"OF_m0", "RE_m0", "CCO_m0"}));
  // SD path: one cycle.
  auto r3 = f.step(f.findState("S0"), {"C_mult1"});
  EXPECT_EQ(r3.nextState, f.findState("S0"));
  EXPECT_EQ(r3.outputs,
            (std::vector<std::string>{"OF_m0", "RE_m0", "CCO_m0"}));
}

TEST(Distributed, FixedUnitControllerHasNoTauChoice) {
  dfg::Dfg g("adds");
  auto a = g.addInput("a");
  auto b = g.addInput("b");
  auto s1 = g.addOp(dfg::OpKind::Add, {a, b}, "a0");
  auto s2 = g.addOp(dfg::OpKind::Add, {s1, b}, "a1");
  g.markOutput(s2);
  ScheduledDfg s = sched::scheduleAndBind(
      g, Allocation{{ResourceClass::Adder, 1}}, tau::paperLibrary());
  DistributedControlUnit dcu = buildDistributed(s);
  ASSERT_EQ(dcu.controllers.size(), 1u);
  const Fsm& f = dcu.controllers[0].fsm;
  // Two ops on the same unit, predecessor on the same unit: no R states,
  // no primed states, two states total, every transition unconditional.
  EXPECT_EQ(f.numStates(), 2u);
  EXPECT_TRUE(f.inputs().empty());
  for (const Transition& t : f.transitions()) {
    EXPECT_TRUE(t.guard.isAlways());
  }
}

TEST(Distributed, WiringIsConsistent) {
  ScheduledDfg s = scheduledDiffeq();
  DistributedControlUnit dcu = buildDistributed(s);
  for (const auto& [sig, consumers] : dcu.consumersOf) {
    ASSERT_TRUE(dcu.producerOf.contains(sig));
    for (int c : consumers) {
      EXPECT_NE(dcu.producerOf.at(sig), c) << "self-consumption of " << sig;
    }
  }
  // Latch count equals the total consumed-signal fan-in.
  int latches = 0;
  for (const UnitController& c : dcu.controllers) {
    latches += static_cast<int>(c.latchedInputs.size());
  }
  EXPECT_EQ(dcu.completionLatchCount(), latches);
  EXPECT_GT(latches, 0);
}

TEST(CentSync, Fig2ShapeAndLatencyRange) {
  // Fig. 2(c): S0 S0' S1 S2 S2' S3 -- six states, latency 4..6 cycles.
  ScheduledDfg s = sched::scheduleAndBind(
      dfg::paperFig2(),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  Fsm f = buildCentSync(s);
  EXPECT_EQ(f.numStates(), 6u);
  EXPECT_NE(f.findState("S0p"), -1);
  EXPECT_NE(f.findState("S2p"), -1);
  EXPECT_EQ(f.findState("S1p"), -1);
  EXPECT_EQ(f.findState("S3p"), -1);
}

TEST(CentSync, SplitStepGuardsReadStepUnits) {
  ScheduledDfg s = scheduledDiffeq();
  Fsm f = buildCentSync(s);
  // Inputs are exactly the telescopic units' completion signals.
  EXPECT_EQ(f.inputs().size(), 2u);
  for (const std::string& in : f.inputs()) {
    EXPECT_TRUE(in.starts_with("C_mult"));
  }
}

TEST(CentSync, TaubmWrapperRequiresSingleTau) {
  ScheduledDfg multi = scheduledDiffeq();
  EXPECT_THROW(buildTaubmFsm(multi), Error);
  dfg::Dfg g = test::mulChain(3);
  ScheduledDfg single = sched::scheduleAndBind(
      g, Allocation{{ResourceClass::Multiplier, 1}}, tau::paperLibrary());
  Fsm f = buildTaubmFsm(single);
  EXPECT_TRUE(f.name().starts_with("TAUBM_FSM"));
  validateFsm(f);
}

TEST(Product, ExponentialGrowthWithParallelTaus) {
  // n independent TAU ops on n units: the synchronized machine has 2 states;
  // the concurrency-preserving product has 2^n (paper Fig. 4).
  for (int n : {1, 2, 3, 4}) {
    dfg::Dfg g = test::parallelMuls(n);
    ScheduledDfg s = sched::scheduleAndBind(
        g, Allocation{{ResourceClass::Multiplier, n}}, tau::paperLibrary());
    DistributedControlUnit dcu = buildDistributed(s);
    Fsm product = buildProduct(dcu);
    EXPECT_EQ(product.numStates(), std::size_t{1} << n) << "n=" << n;
  }
}

TEST(Product, StateBoundEnforced) {
  dfg::Dfg g = test::parallelMuls(4);
  ScheduledDfg s = sched::scheduleAndBind(
      g, Allocation{{ResourceClass::Multiplier, 4}}, tau::paperLibrary());
  DistributedControlUnit dcu = buildDistributed(s);
  ProductOptions opt;
  opt.maxStates = 8;
  EXPECT_THROW(buildProduct(dcu, opt), Error);
}

TEST(Product, HidesInternalSignalsByDefault) {
  ScheduledDfg s = scheduledFig3();
  DistributedControlUnit dcu = buildDistributed(s);
  Fsm product = buildProduct(dcu);
  for (const std::string& out : product.outputs()) {
    EXPECT_FALSE(out.starts_with("CCO_")) << out;
  }
  ProductOptions keep;
  keep.hideInternalSignals = false;
  Fsm full = buildProduct(dcu, keep);
  bool sawCco = false;
  for (const std::string& out : full.outputs()) sawCco |= out.starts_with("CCO_");
  EXPECT_TRUE(sawCco);
}

TEST(Product, CrossUnitDependencyResolvesThroughLatch) {
  // Diamond: m1, m2 on two TAU multipliers; s = m1 + m2 on an adder whose
  // controller waits in R0 for CCO_m1 and CCO_m2.  Under all-SD inputs the
  // product must deliver RE_s by cycle 3 (mults cycle 1, adder starts after
  // the latched completions, cycle 3).
  dfg::Dfg g = test::diamond();
  ScheduledDfg s = sched::scheduleAndBind(
      g,
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  DistributedControlUnit dcu = buildDistributed(s);
  ASSERT_EQ(dcu.controllers.size(), 3u);
  ASSERT_EQ(dcu.consumersOf.size(), 2u);  // CCO_m1, CCO_m2
  Fsm product = buildProduct(dcu);
  std::unordered_set<std::string> allSd;
  for (const std::string& in : product.inputs()) allSd.insert(in);
  int state = product.initial();
  bool sawReS = false;
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto r = product.step(state, allSd);
    state = r.nextState;
    for (const std::string& o : r.outputs) sawReS |= (o == "RE_s");
  }
  EXPECT_TRUE(sawReS);

  // Worst case (never asserted completions): the multipliers take two
  // cycles; RE_s must appear by cycle 4 and not before cycle 3.
  state = product.initial();
  int reCycle = -1;
  for (int cycle = 0; cycle < 5 && reCycle < 0; ++cycle) {
    auto r = product.step(state, {});
    state = r.nextState;
    for (const std::string& o : r.outputs) {
      if (o == "RE_s") reCycle = cycle;
    }
  }
  // Cycles 0-1: multipliers (LD).  Their completion pulses fire during
  // cycle 1, moving the adder R0 -> S0 at that edge; the add executes in
  // cycle 2 and RE_s is asserted on its completing transition.
  EXPECT_EQ(reCycle, 2);
}

TEST(Network, PulsesAreProducedSignalsAndLatchesHoldThem) {
  // Walk the diffeq network under all-LD inputs: each cycle's pulses are
  // exactly the fired producerOf signals, and a controller's latch set grows
  // by exactly the pulses it consumes.
  ScheduledDfg s = scheduledDiffeq();
  DistributedControlUnit dcu = buildDistributed(s);
  NetworkConfig config = initialConfig(dcu);
  bool latched = false;
  for (int cycle = 0; cycle < 30; ++cycle) {
    const NetworkStep step = stepNetwork(dcu, config, {});
    std::unordered_set<std::string> produced;
    for (const std::vector<std::string>& fired : step.outputs) {
      for (const std::string& o : fired) {
        if (dcu.producerOf.contains(o)) produced.insert(o);
      }
    }
    EXPECT_EQ(step.pulses, produced) << "cycle " << cycle;
    for (std::size_t c = 0; c < dcu.controllers.size(); ++c) {
      std::set<std::string> expected = config.latches[c];
      for (const std::string& sig : dcu.controllers[c].latchedInputs) {
        if (step.pulses.contains(sig)) expected.insert(sig);
      }
      EXPECT_EQ(step.next.latches[c], expected) << "cycle " << cycle;
      latched |= !step.next.latches[c].empty();
    }
    config = step.next;
  }
  EXPECT_TRUE(latched);
}

TEST(SignalOpt, RemovesUnconsumedCompletionOutputs) {
  ScheduledDfg s = scheduledDiffeq();
  DistributedControlUnit dcu = buildDistributed(s);
  SignalOptStats stats;
  DistributedControlUnit opt = optimizeSignals(dcu, &stats);
  EXPECT_GT(stats.removedOutputs, 0);
  EXPECT_GT(stats.keptOutputs, 0);
  // No controller still declares an unconsumed CCO output.
  for (const UnitController& c : opt.controllers) {
    for (const std::string& o : c.fsm.outputs()) {
      if (o.starts_with("CCO_")) {
        EXPECT_TRUE(dcu.consumersOf.contains(o)) << o;
      }
    }
    validateFsm(c.fsm);
  }
  // Consumed signals (and thus behaviour seen by other controllers) intact.
  EXPECT_EQ(opt.consumersOf.size(), dcu.consumersOf.size());
}

TEST(SignalOpt, ProductUnaffectedByOptimization) {
  ScheduledDfg s = scheduledFig3();
  DistributedControlUnit dcu = buildDistributed(s);
  DistributedControlUnit opt = optimizeSignals(dcu);
  Fsm p1 = buildProduct(dcu);
  Fsm p2 = buildProduct(opt);
  EXPECT_EQ(p1.numStates(), p2.numStates());
}

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, AllMachinesValidOnRandomGraphs) {
  dfg::RandomDfgSpec spec;
  spec.seed = GetParam();
  spec.numOps = 6 + static_cast<int>(GetParam() % 14);
  dfg::Dfg g = dfg::randomDfg(spec);
  Allocation alloc{{ResourceClass::Multiplier, 2},
                   {ResourceClass::Adder, 1},
                   {ResourceClass::Subtractor, 1}};
  ScheduledDfg s = sched::scheduleAndBind(g, alloc, tau::paperLibrary());
  DistributedControlUnit dcu = buildDistributed(s);
  for (const UnitController& c : dcu.controllers) {
    EXPECT_NO_THROW(validateFsm(c.fsm));
  }
  EXPECT_NO_THROW(validateFsm(buildCentSync(s)));
  // The product is validated internally on construction.
  Fsm product = buildProduct(dcu);
  EXPECT_GE(product.numStates(), 1u);
  // Distributed state total is linear in ops; product may be exponential.
  EXPECT_LE(dcu.totalStates(), 3 * g.numOps() + dcu.controllers.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tauhls::fsm
