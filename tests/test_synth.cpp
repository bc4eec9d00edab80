#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/product.hpp"
#include "logic/minimize.hpp"
#include "synth/area.hpp"
#include "synth/encoding.hpp"
#include "synth/extract.hpp"
#include "testutil.hpp"

namespace tauhls::synth {
namespace {

using dfg::ResourceClass;
using sched::Allocation;

fsm::Fsm toyCounter() {
  // 3-state counter with an enable input; S2 wraps and pulses "done".
  fsm::Fsm f("counter3");
  int s0 = f.addState("S0");
  int s1 = f.addState("S1");
  int s2 = f.addState("S2");
  f.addInput("en");
  f.addOutput("done");
  f.addTransition(s0, s1, fsm::Guard::literal("en", true), {});
  f.addTransition(s0, s0, fsm::Guard::literal("en", false), {});
  f.addTransition(s1, s2, fsm::Guard::literal("en", true), {});
  f.addTransition(s1, s1, fsm::Guard::literal("en", false), {});
  f.addTransition(s2, s0, fsm::Guard::always(), {"done"});
  f.setInitial(s0);
  return f;
}

TEST(Encoding, BinaryCompact) {
  fsm::Fsm f = toyCounter();
  Encoding e = encodeStates(f, EncodingStyle::Binary);
  EXPECT_EQ(e.bits, 2);
  EXPECT_EQ(e.codeOf, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(e.stateOf(1), 1);
  EXPECT_EQ(e.stateOf(3), -1);  // unused code
}

TEST(Encoding, OneHot) {
  fsm::Fsm f = toyCounter();
  Encoding e = encodeStates(f, EncodingStyle::OneHot);
  EXPECT_EQ(e.bits, 3);
  EXPECT_EQ(e.codeOf, (std::vector<std::uint32_t>{1, 2, 4}));
}

TEST(Extract, CounterLogicIsCorrect) {
  fsm::Fsm f = toyCounter();
  SynthesizedFsm s = synthesize(f);
  EXPECT_EQ(s.numStates, 3);
  EXPECT_EQ(s.flipFlops, 2);
  EXPECT_EQ(s.numInputs, 1);
  EXPECT_EQ(s.numOutputs, 1);
  ASSERT_EQ(s.nextStateLogic.size(), 2u);
  ASSERT_EQ(s.outputLogic.size(), 1u);
  // Evaluate the extracted network against the machine on all care rows.
  // Variable order: state bits (LSB first), then inputs.
  for (int state = 0; state < 3; ++state) {
    for (int en = 0; en < 2; ++en) {
      std::unordered_set<std::string> asserted;
      if (en) asserted.insert("en");
      auto ref = f.step(state, asserted);
      const std::uint64_t row =
          static_cast<std::uint64_t>(state) | (static_cast<std::uint64_t>(en) << 2);
      std::uint32_t nextCode = 0;
      for (int b = 0; b < 2; ++b) {
        if (s.nextStateLogic[b].evaluate(row)) nextCode |= 1u << b;
      }
      EXPECT_EQ(static_cast<int>(nextCode), ref.nextState);
      const bool done = !ref.outputs.empty();
      EXPECT_EQ(s.outputLogic[0].evaluate(row), done);
    }
  }
}

TEST(Extract, DontCaresReduceLiterals) {
  // With 3 states in 2 bits, code 3 is a don't-care; the minimized logic must
  // not exceed the 1-per-minterm upper bound and must use the slack.
  fsm::Fsm f = toyCounter();
  SynthesizedFsm s = synthesize(f);
  EXPECT_GT(s.totalLiterals(), 0);
  EXPECT_LE(s.totalLiterals(), 24);
}

TEST(Extract, DistributedControllersSynthesize) {
  auto sdfg = sched::scheduleAndBind(dfg::diffeq(),
                                     Allocation{{ResourceClass::Multiplier, 2},
                                                {ResourceClass::Adder, 1},
                                                {ResourceClass::Subtractor, 1}},
                                     tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(sdfg);
  for (const fsm::UnitController& c : dcu.controllers) {
    SynthesizedFsm s = synthesize(c.fsm);
    EXPECT_GT(s.totalLiterals(), 0) << c.fsm.name();
    EXPECT_EQ(s.flipFlops, c.fsm.flipFlopCount());
  }
}

// The Fast regime compiles guards to bitmask terms for the truth-table row
// sweep (and runs the fast minimizer); the Reference regime steps the FSM
// row by row.  Both must extract identical covers on every Table 2
// controller -- including the 11-variable 3rd-IIR and AR-lattice ones --
// under both encodings.
TEST(Extract, FastAndReferenceRegimesExtractIdenticalLogic) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    const sched::ScheduledDfg sdfg =
        sched::scheduleAndBind(b.graph, b.allocation, tau::paperLibrary());
    const fsm::DistributedControlUnit dcu = fsm::buildDistributed(sdfg);
    for (const fsm::UnitController& c : dcu.controllers) {
      for (const EncodingStyle style :
           {EncodingStyle::Binary, EncodingStyle::OneHot}) {
        logic::setMinimizerImpl(logic::MinimizerImpl::Reference);
        const SynthesizedFsm ref = synthesize(c.fsm, style);
        logic::setMinimizerImpl(logic::MinimizerImpl::Fast);
        const SynthesizedFsm fast = synthesize(c.fsm, style);
        const std::string where = b.name + " " + c.fsm.name();
        ASSERT_EQ(fast.nextStateLogic.size(), ref.nextStateLogic.size());
        for (std::size_t i = 0; i < fast.nextStateLogic.size(); ++i) {
          EXPECT_EQ(fast.nextStateLogic[i].cubes(),
                    ref.nextStateLogic[i].cubes())
              << where << " ns" << i;
        }
        ASSERT_EQ(fast.outputLogic.size(), ref.outputLogic.size());
        for (std::size_t i = 0; i < fast.outputLogic.size(); ++i) {
          EXPECT_EQ(fast.outputLogic[i].cubes(), ref.outputLogic[i].cubes())
              << where << " out" << i;
        }
        EXPECT_EQ(fast.totalLiterals(), ref.totalLiterals()) << where;
      }
    }
  }
}

TEST(Area, RowBasics) {
  AreaRow row = areaRow("counter", toyCounter());
  EXPECT_EQ(row.name, "counter");
  EXPECT_EQ(row.states, 3);
  EXPECT_EQ(row.flipFlops, 2);
  EXPECT_EQ(row.seqArea, 2 * kAreaPerFlipFlop);
  EXPECT_EQ(row.seqArea, 44);  // the paper's 2-FF sequential area
  EXPECT_GT(row.combArea, 0);
  EXPECT_EQ(row.totalArea(), row.combArea + row.seqArea);
}

TEST(Area, PaperSequentialConstantReproduced) {
  // The paper's Table 1: 3 FFs -> 66, 5 FFs -> 110.
  EXPECT_EQ(3 * kAreaPerFlipFlop, 66);
  EXPECT_EQ(5 * kAreaPerFlipFlop, 110);
}

TEST(Area, DistributedReportAggregates) {
  auto sdfg = sched::scheduleAndBind(dfg::diffeq(),
                                     Allocation{{ResourceClass::Multiplier, 2},
                                                {ResourceClass::Adder, 1},
                                                {ResourceClass::Subtractor, 1}},
                                     tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(sdfg);
  DistributedAreaReport report = distributedArea(dcu);
  ASSERT_EQ(report.perController.size(), 4u);
  int combSum = 0;
  int ffSum = 0;
  for (const AreaRow& row : report.perController) {
    combSum += row.combArea;
    ffSum += row.flipFlops;
  }
  EXPECT_EQ(report.total.combArea, combSum);
  EXPECT_EQ(report.total.flipFlops, ffSum + report.completionLatches);
  EXPECT_EQ(report.total.seqArea,
            (ffSum + report.completionLatches) * kAreaPerFlipFlop);
  EXPECT_GT(report.completionLatches, 0);
}

TEST(Area, Table1Shape) {
  // The paper's area claims on the Diff. benchmark with {*:2, +:1, -:1}:
  //   (a) CENT-SYNC-FSM is the smallest machine;
  //   (b) DIST-FSM total is larger than CENT-SYNC (redundancy + comm);
  //   (c) CENT-FSM (full product) has far more states than CENT-SYNC and
  //       more combinational area than any single unit controller.
  auto sdfg = sched::scheduleAndBind(dfg::diffeq(),
                                     Allocation{{ResourceClass::Multiplier, 2},
                                                {ResourceClass::Adder, 1},
                                                {ResourceClass::Subtractor, 1}},
                                     tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(sdfg);
  fsm::Fsm centSync = fsm::buildCentSync(sdfg);
  fsm::Fsm product = fsm::buildProduct(dcu);

  AreaRow sync = areaRow("CENT-SYNC-FSM", centSync);
  AreaRow cent = areaRow("CENT-FSM", product);
  DistributedAreaReport dist = distributedArea(dcu);

  EXPECT_GT(dist.total.totalArea(), sync.totalArea());
  EXPECT_GT(cent.states, sync.states);
  EXPECT_GT(cent.states, static_cast<int>(dcu.totalStates()));
  for (const AreaRow& row : dist.perController) {
    EXPECT_GT(cent.combArea, row.combArea);
  }
}

TEST(Extract, OversizedFsmRejected) {
  // 40 inputs would blow the explicit truth-table bound.
  fsm::Fsm f("wide");
  int s0 = f.addState("S0");
  for (int i = 0; i < 23; ++i) f.addInput("i" + std::to_string(i));
  f.addTransition(s0, s0, fsm::Guard::always(), {});
  f.setInitial(s0);
  EXPECT_THROW(synthesize(f), Error);
}

}  // namespace
}  // namespace tauhls::synth
