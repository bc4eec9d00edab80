// Multi-level VCAU extension tests: the generalized Algorithm 1, its
// latency engines, and the reduction to the paper's two-level case.
#include <gtest/gtest.h>

#include <any>
#include <memory>

#include "common/error.hpp"
#include "core/serialize.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/signal.hpp"
#include "sim/interp.hpp"
#include "sim/stats.hpp"
#include "testutil.hpp"
#include "vcau/controller.hpp"
#include "vcau/interp.hpp"
#include "vcau/stats.hpp"

namespace tauhls::vcau {
namespace {

using dfg::ResourceClass;
using sched::Allocation;

/// Clock 10 ns: levels 10/20/30 ns -> 1/2/3 cycles.
tau::ResourceLibrary clock10Library() {
  tau::ResourceLibrary lib;
  // Surrogate two-level multiplier keeps scheduleAndBind happy; the vcau
  // overrides supply the real three-level behaviour.
  lib.registerType(
      tau::telescopicUnit("tau_mult", ResourceClass::Multiplier, 10, 20, 0.5));
  lib.registerType(tau::fixedUnit("adder", ResourceClass::Adder, 10.0));
  lib.registerType(tau::fixedUnit("subtractor", ResourceClass::Subtractor, 10.0));
  return lib;
}

MultiLevelLibrary threeLevelMult() {
  return {{ResourceClass::Multiplier,
           multiLevelUnit("tau3_mult", ResourceClass::Multiplier, {10, 20, 30},
                          {0.5, 0.3, 0.2})}};
}

TEST(Unit, ValidationRules) {
  EXPECT_NO_THROW(multiLevelUnit("u", ResourceClass::Multiplier, {10, 20},
                                 {0.7, 0.3}));
  EXPECT_THROW(multiLevelUnit("u", ResourceClass::Multiplier, {20, 10},
                              {0.5, 0.5}),
               Error);
  EXPECT_THROW(multiLevelUnit("u", ResourceClass::Multiplier, {10, 20},
                              {0.5, 0.4}),
               Error);
  EXPECT_THROW(multiLevelUnit("u", ResourceClass::Multiplier, {}, {}), Error);
  // Cycle contract: 25 ns at a 10 ns clock needs 3 cycles, not 2.
  MultiLevelUnitType bad = multiLevelUnit("u", ResourceClass::Multiplier,
                                          {10, 25}, {0.5, 0.5});
  EXPECT_THROW(validateMultiLevelUnit(bad, 10.0), Error);
}

TEST(Controller, TwoLevelReducesToPaperAlgorithm) {
  // A two-level override must produce exactly the standard Algorithm 1
  // network: byte-identical through the Distributed artifact codec, and
  // trace-equivalent controller by controller.
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary());
  MultiLevelLibrary two{{ResourceClass::Multiplier,
                         multiLevelUnit("tau2", ResourceClass::Multiplier,
                                        {15, 20}, {0.5, 0.5})}};
  fsm::DistributedControlUnit a = fsm::buildDistributed(s);
  fsm::DistributedControlUnit b = buildMultiLevelDistributed(s, two);
  auto encode = [](const fsm::DistributedControlUnit& dcu) {
    return core::encodeArtifact(
        core::Artifact::Distributed,
        std::any(std::make_shared<const fsm::DistributedControlUnit>(dcu)));
  };
  EXPECT_EQ(encode(a), encode(b));
  ASSERT_EQ(a.controllers.size(), b.controllers.size());
  for (std::size_t c = 0; c < a.controllers.size(); ++c) {
    EXPECT_EQ(sim::compareOnRandomTraces(a.controllers[c].fsm,
                                         b.controllers[c].fsm, 5, 6, 40),
              -1)
        << a.controllers[c].fsm.name();
  }
}

TEST(Controller, ThreeLevelStateChain) {
  dfg::Dfg g = test::parallelMuls(1);
  auto s = sched::scheduleAndBind(g, Allocation{{ResourceClass::Multiplier, 1}},
                                  clock10Library());
  fsm::DistributedControlUnit dcu = buildMultiLevelDistributed(s, threeLevelMult());
  const fsm::Fsm& f = dcu.controllers[0].fsm;
  EXPECT_EQ(f.numStates(), 3u);  // S0, S0p, S0pp
  EXPECT_NE(f.findState("S0pp"), -1);
  // Level 0: complete from S0 when C is up.
  auto r = f.step(f.findState("S0"), {"C_mult1"});
  EXPECT_EQ(r.nextState, f.findState("S0"));
  // Level 2: two misses then unconditional completion.
  auto r1 = f.step(f.findState("S0"), {});
  EXPECT_EQ(r1.nextState, f.findState("S0p"));
  auto r2 = f.step(r1.nextState, {});
  EXPECT_EQ(r2.nextState, f.findState("S0pp"));
  auto r3 = f.step(r2.nextState, {});
  EXPECT_EQ(r3.nextState, f.findState("S0"));
  EXPECT_EQ(r3.outputs.size(), 3u);  // OF, RE, CCO
}

TEST(Controller, RejectsWrongClockContract) {
  dfg::Dfg g = test::parallelMuls(1);
  auto s = sched::scheduleAndBind(g, Allocation{{ResourceClass::Multiplier, 1}},
                                  tau::paperLibrary());  // 15 ns clock
  // 10/20/30 at a 15 ns clock: level 1 fits in 2 cycles but level 0's
  // 10 ns < 15 ns is fine; 30 ns needs exactly 2 cycles, not 3 -> reject.
  EXPECT_THROW(buildMultiLevelDistributed(s, threeLevelMult()), Error);
}

TEST(Makespan, LevelDurations) {
  dfg::Dfg g = test::mulChain(3);
  auto s = sched::scheduleAndBind(g, Allocation{{ResourceClass::Multiplier, 1}},
                                  clock10Library());
  MultiLevelLibrary lib = threeLevelMult();
  EXPECT_EQ(distributedMakespanCycles(s, lib, allFastest(s, lib)), 3);
  EXPECT_EQ(distributedMakespanCycles(s, lib, allSlowest(s, lib)), 9);
  LevelClasses mixed = allFastest(s, lib);
  mixed.levelOf[g.findByName("m1")] = 2;
  EXPECT_EQ(distributedMakespanCycles(s, lib, mixed), 5);
}

TEST(Makespan, SyncChargesStepMaximum) {
  dfg::Dfg g = test::parallelMuls(2);
  auto s = sched::scheduleAndBind(g, Allocation{{ResourceClass::Multiplier, 2}},
                                  clock10Library());
  MultiLevelLibrary lib = threeLevelMult();
  LevelClasses c = allFastest(s, lib);
  c.levelOf[g.findByName("m1")] = 2;
  EXPECT_EQ(syncMakespanCycles(s, lib, c), 3);        // whole step waits
  EXPECT_EQ(distributedMakespanCycles(s, lib, c), 3);  // the slow op itself
}

TEST(Interp, MatchesMakespanOnDiffeq) {
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  clock10Library());
  MultiLevelLibrary lib = threeLevelMult();
  fsm::DistributedControlUnit dcu = buildMultiLevelDistributed(s, lib);
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    LevelClasses classes = randomLevels(s, lib, seed);
    sim::SimTrace trace = runDistributed(dcu, s, lib, classes);
    EXPECT_EQ(trace.latencyCycles,
              distributedMakespanCycles(s, lib, classes))
        << "seed=" << seed;
  }
}

TEST(Stats, ExactMatchesTwoLevelEngineOnPaperCase) {
  // With a two-level override matching the paper library, the vcau exact
  // expectation must equal the sim module's.
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary(0.7));
  MultiLevelLibrary two{{ResourceClass::Multiplier,
                         multiLevelUnit("tau2", ResourceClass::Multiplier,
                                        {15, 20}, {0.7, 0.3})}};
  EXPECT_NEAR(averageCyclesExact(s, two, ControlStyle::Distributed),
              sim::averageCyclesExact(s, sim::ControlStyle::Distributed, 0.7),
              1e-9);
  EXPECT_NEAR(averageCyclesExact(s, two, ControlStyle::CentSync),
              sim::averageCyclesExact(s, sim::ControlStyle::CentSync, 0.7),
              1e-9);
}

TEST(Stats, ExactMatchesMonteCarlo) {
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  clock10Library());
  MultiLevelLibrary lib = threeLevelMult();
  const double exact = averageCyclesExact(s, lib, ControlStyle::Distributed);
  const double mc =
      averageCyclesMonteCarlo(s, lib, ControlStyle::Distributed, 30000, 11);
  EXPECT_NEAR(mc, exact, 0.05);
}

TEST(Stats, DistributedNeverSlowerThanSync) {
  auto s = sched::scheduleAndBind(dfg::fir(5),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1}},
                                  clock10Library());
  MultiLevelLibrary lib = threeLevelMult();
  EXPECT_LE(averageCyclesExact(s, lib, ControlStyle::Distributed),
            averageCyclesExact(s, lib, ControlStyle::CentSync));
}

class VcauProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VcauProperty, InterpEqualsMakespanOnRandomGraphs) {
  dfg::RandomDfgSpec spec;
  spec.seed = GetParam() * 613;
  spec.numOps = 5 + static_cast<int>(GetParam() % 8);
  dfg::Dfg g = dfg::randomDfg(spec);
  auto s = sched::scheduleAndBind(g,
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  clock10Library());
  // One, two and three multiplier levels (10/20/30 ns at a 10 ns clock).
  const std::vector<MultiLevelLibrary> libs = {
      {{ResourceClass::Multiplier,
        multiLevelUnit("tau1_mult", ResourceClass::Multiplier, {10}, {1.0})}},
      {{ResourceClass::Multiplier,
        multiLevelUnit("tau2_mult", ResourceClass::Multiplier, {10, 20},
                       {0.6, 0.4})}},
      threeLevelMult()};
  for (const MultiLevelLibrary& lib : libs) {
    fsm::DistributedControlUnit dcu = buildMultiLevelDistributed(s, lib);
    // Every state the generator emits round-trips through the shared
    // state-name parser.
    for (const fsm::UnitController& ctl : dcu.controllers) {
      for (int st = 0; st < static_cast<int>(ctl.fsm.numStates()); ++st) {
        const std::string& name = ctl.fsm.stateName(st);
        const fsm::StateName p = fsm::parseStateName(name);
        ASSERT_NE(p.kind, fsm::StateName::Kind::Other) << name;
        EXPECT_EQ(p.kind == fsm::StateName::Kind::Execute
                      ? fsm::executionStateName(p.index, p.level)
                      : fsm::readyStateName(p.index),
                  name);
        EXPECT_LT(p.level, levelsOfUnit(s, lib, ctl.unitId)) << name;
      }
    }
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
      LevelClasses classes = randomLevels(s, lib, GetParam() * 50 + trial);
      EXPECT_EQ(runDistributed(dcu, s, lib, classes).latencyCycles,
                distributedMakespanCycles(s, lib, classes));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcauProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace tauhls::vcau
