#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "core/hier_flow.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/kiss.hpp"
#include "fsm/product.hpp"
#include "fsm/signal.hpp"
#include "fsm/signal_opt.hpp"
#include "logic/minimize.hpp"
#include "logic/truth_table.hpp"
#include "sched/clique.hpp"
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

/// A machine of `n` states with one always-true self loop each; enough for
/// the encodings, which look at the state count only.
fsm::Fsm statesOnly(int n) {
  fsm::Fsm f("states" + std::to_string(n));
  for (int s = 0; s < n; ++s) {
    const int id = f.addState("S" + std::to_string(s));
    f.addTransition(id, id, fsm::Guard::always(), {});
  }
  f.setInitial(0);
  return f;
}

/// Synthesis under MinimizerImpl::Reference (which bypasses the cache),
/// restoring the Fast default afterwards.
SynthesizedFsm referenceSynthesis(const fsm::Fsm& f,
                                  EncodingStyle style = EncodingStyle::Binary) {
  logic::setMinimizerImpl(logic::MinimizerImpl::Reference);
  SynthesizedFsm s = synthesize(f, style);
  logic::setMinimizerImpl(logic::MinimizerImpl::Fast);
  return s;
}

/// Cube-for-cube equality of every cover plus the interface counts.
void expectSameLogic(const SynthesizedFsm& got, const SynthesizedFsm& want,
                     const std::string& where) {
  EXPECT_EQ(got.numInputs, want.numInputs) << where;
  EXPECT_EQ(got.numOutputs, want.numOutputs) << where;
  EXPECT_EQ(got.numStates, want.numStates) << where;
  EXPECT_EQ(got.flipFlops, want.flipFlops) << where;
  ASSERT_EQ(got.nextStateLogic.size(), want.nextStateLogic.size()) << where;
  for (std::size_t i = 0; i < got.nextStateLogic.size(); ++i) {
    EXPECT_EQ(got.nextStateLogic[i].cubes(), want.nextStateLogic[i].cubes())
        << where << " ns" << i;
  }
  ASSERT_EQ(got.outputLogic.size(), want.outputLogic.size()) << where;
  for (std::size_t i = 0; i < got.outputLogic.size(); ++i) {
    EXPECT_EQ(got.outputLogic[i].cubes(), want.outputLogic[i].cubes())
        << where << " out" << i;
  }
}

bool sameLogic(const SynthesizedFsm& a, const SynthesizedFsm& b) {
  const auto cubes = [](const std::vector<logic::Cover>& covers) {
    std::vector<std::vector<logic::Cube>> out;
    for (const logic::Cover& c : covers) out.push_back(c.cubes());
    return out;
  };
  return cubes(a.nextStateLogic) == cubes(b.nextStateLogic) &&
         cubes(a.outputLogic) == cubes(b.outputLogic);
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

// stateOf decodes directly; it must agree with a scan over codeOf on every
// code the flip-flops can hold (and on codes wider than that).
TEST(Encoding, StateOfMatchesScanOverEveryCode) {
  for (int n = 1; n <= 12; ++n) {
    const fsm::Fsm f = statesOnly(n);
    for (const EncodingStyle style :
         {EncodingStyle::Binary, EncodingStyle::OneHot}) {
      const Encoding e = encodeStates(f, style);
      for (std::uint32_t code = 0; code < (std::uint32_t{1} << (e.bits + 1));
           ++code) {
        int scanned = -1;
        for (std::size_t s = 0; s < e.codeOf.size(); ++s) {
          if (e.codeOf[s] == code) scanned = static_cast<int>(s);
        }
        EXPECT_EQ(e.stateOf(code), scanned)
            << n << " states, one-hot " << (style == EncodingStyle::OneHot)
            << ", code " << code;
      }
    }
  }
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

// The Fast regime reads cube lists off the transitions and runs the cube
// engines; the Reference regime steps the FSM row by row into truth tables.
// Both must extract identical covers on every Table 2
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
        const SynthesizedFsm ref = referenceSynthesis(c.fsm, style);
        const SynthesizedFsm fast = synthesize(c.fsm, style);
        const std::string where = b.name + " " + c.fsm.name();
        expectSameLogic(fast, ref, where);
        EXPECT_EQ(fast.totalLiterals(), ref.totalLiterals()) << where;
      }
    }
  }
}

// ---- the structural synthesis cache ---------------------------------------

/// Knobs for cacheProbe: each one is a structural change the cache key must
/// separate from the default machine.
struct ProbeShape {
  bool flipPolarity = false;   ///< S0 advances on !a instead of a
  bool retarget = false;       ///< S2 goes to S0 instead of S3
  int initial = 0;             ///< S4 is reachable only when it is initial
  bool reorderInputs = false;  ///< declare b before a
};

/// A valid 5-state, 2-input, 2-output machine.  `names` picks the machine,
/// state and signal names so renamed copies can be built: index 0 is the
/// machine, 1-5 the states, 6-7 the inputs a/b, 8-9 the outputs.
fsm::Fsm cacheProbe(const ProbeShape& shape,
                    const std::vector<std::string>& names) {
  fsm::Fsm f(names[0]);
  std::vector<int> st;
  for (int s = 0; s < 5; ++s) st.push_back(f.addState(names[1 + s]));
  const std::string& a = names[6];
  const std::string& b = names[7];
  if (shape.reorderInputs) {
    f.addInput(b);
    f.addInput(a);
  } else {
    f.addInput(a);
    f.addInput(b);
  }
  const std::string& o1 = names[8];
  const std::string& o2 = names[9];
  f.addOutput(o1);
  f.addOutput(o2);
  const bool go = !shape.flipPolarity;
  f.addTransition(st[0], st[1], fsm::Guard::literal(a, go), {o1});
  f.addTransition(st[0], st[0], fsm::Guard::literal(a, !go), {});
  f.addTransition(st[1], st[2], fsm::Guard::allOf({a, b}), {o2});
  f.addTransition(st[1], st[1], fsm::Guard::literal(a, false), {});
  f.addTransition(st[1], st[3],
                  fsm::Guard::literal(a, true).conjoin(
                      fsm::Guard::literal(b, false)),
                  {});
  f.addTransition(st[2], shape.retarget ? st[0] : st[3], fsm::Guard::always(),
                  {o1, o2});
  f.addTransition(st[3], st[0], fsm::Guard::literal(b, true), {});
  f.addTransition(st[3], st[3], fsm::Guard::literal(b, false), {o1});
  f.addTransition(st[4], st[0], fsm::Guard::always(), {o2});
  f.setInitial(st[shape.initial]);
  return f;
}

const std::vector<std::string> kProbeNames = {
    "probe", "S0", "S1", "S2", "S3", "S4", "a", "b", "o1", "o2"};

// Renaming the machine, its states and its signals (here into reversed
// alphabetical order, so guard literals iterate in a different order) keeps
// the structural key: both get the same covers, each under its own name.
TEST(SynthesisCache, RenamedMachinesShareCovers) {
  const fsm::Fsm original = cacheProbe({}, kProbeNames);
  const fsm::Fsm renamed =
      cacheProbe({}, {"other", "z0", "y1", "x2", "w3", "v4", "zz_in", "aa_in",
                      "zz_out", "aa_out"});
  const SynthesizedFsm first = synthesize(original);
  const SynthesizedFsm second = synthesize(renamed);
  EXPECT_EQ(first.name, "probe");
  EXPECT_EQ(second.name, "other");
  expectSameLogic(second, first, "renamed");
  expectSameLogic(second, referenceSynthesis(renamed), "renamed vs reference");
}

// Every structural change gets its own entry: each variant's covers equal
// its own Reference synthesis, never the cached default's.
TEST(SynthesisCache, StructuralChangesGetSeparateEntries) {
  const fsm::Fsm base = cacheProbe({}, kProbeNames);
  const SynthesizedFsm baseLogic = synthesize(base);
  expectSameLogic(baseLogic, referenceSynthesis(base), "base");

  std::vector<std::pair<std::string, ProbeShape>> variants;
  variants.emplace_back("flip polarity", ProbeShape{.flipPolarity = true});
  variants.emplace_back("retarget", ProbeShape{.retarget = true});
  variants.emplace_back("move initial", ProbeShape{.initial = 4});
  variants.emplace_back("reorder inputs", ProbeShape{.reorderInputs = true});
  for (const auto& [what, shape] : variants) {
    const fsm::Fsm variant = cacheProbe(shape, kProbeNames);
    const SynthesizedFsm got = synthesize(variant);
    expectSameLogic(got, referenceSynthesis(variant), what);
    EXPECT_FALSE(sameLogic(got, baseLogic)) << what;
  }
  const SynthesizedFsm oneHot = synthesize(base, EncodingStyle::OneHot);
  expectSameLogic(oneHot, referenceSynthesis(base, EncodingStyle::OneHot),
                  "one-hot");
  EXPECT_NE(oneHot.flipFlops, baseLogic.flipFlops);
}

/// A ring of `states` states over `inputs` inputs: state s advances when
/// inputs s and s+1 (mod inputs) are both high, asserting its own output,
/// and holds otherwise.  Unique to the concurrency test, so its cache entry
/// starts cold even when the whole suite runs in one process.
fsm::Fsm wideRing(int states, int inputs) {
  fsm::Fsm f("ring");
  for (int s = 0; s < states; ++s) f.addState("R" + std::to_string(s));
  for (int i = 0; i < inputs; ++i) f.addInput("in" + std::to_string(i));
  for (int s = 0; s < states; ++s) f.addOutput("adv" + std::to_string(s));
  for (int s = 0; s < states; ++s) {
    const std::vector<std::string> need = {
        "in" + std::to_string(s % inputs),
        "in" + std::to_string((s + 1) % inputs)};
    f.addTransition(s, (s + 1) % states, fsm::Guard::allOf(need),
                    {"adv" + std::to_string(s)});
    f.addTransition(s, s, fsm::Guard::notAllOf(need), {});
  }
  f.setInitial(0);
  return f;
}

// 8 pool threads synthesize one wide controller at once: one computes, the
// others wait on the same slot, and all get the Reference covers.
TEST(SynthesisCache, ConcurrentCallersGetIdenticalCovers) {
  const fsm::Fsm ring = wideRing(12, 7);  // 4 state bits + 7 inputs
  const SynthesizedFsm want = referenceSynthesis(ring);
  std::vector<SynthesizedFsm> got(8);
  common::ThreadPool pool(8);
  pool.forEach(got.size(), [&](std::size_t i) { got[i] = synthesize(ring); });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, "ring");
    expectSameLogic(got[i], want, "caller " + std::to_string(i));
  }
}

/// One state looping on itself over `inputs` unread inputs: 1 state bit
/// plus `inputs` variables.
fsm::Fsm selfLoop(const std::string& name, int inputs) {
  fsm::Fsm f(name);
  const int s0 = f.addState("S0");
  for (int i = 0; i < inputs; ++i) f.addInput(numbered("i", i));
  f.addTransition(s0, s0, fsm::Guard::always(), {});
  f.setInitial(s0);
  return f;
}

// A synthesis that throws is not cached: concurrent callers all throw, each
// naming its own machine, and a later call throws again.
TEST(SynthesisCache, ErrorsReachEveryCallerAndAreNotCached) {
  const std::vector<fsm::Fsm> machines = {selfLoop("wideA", 65),
                                          selfLoop("wideB", 65)};
  std::vector<std::string> messages(8);
  common::ThreadPool pool(8);
  pool.forEach(messages.size(), [&](std::size_t i) {
    try {
      synthesize(machines[i % 2]);
    } catch (const Error& e) {
      messages[i] = e.what();
    }
  });
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_NE(messages[i].find(machines[i % 2].name()), std::string::npos)
        << "caller " << i << ": '" << messages[i] << "'";
  }
  EXPECT_THROW(synthesize(machines[0]), Error);
  EXPECT_THROW(synthesize(machines[1]), Error);
}

// RE_i and CCO_i are both asserted exactly on the completing cycle, so
// their truth tables coincide and Fast extraction minimizes the table once.
// The shared cover must still match Reference (which minimizes each table
// separately) cube for cube.
TEST(SynthesisCache, CoincidingTablesMatchReference) {
  const sched::ScheduledDfg sdfg =
      sched::scheduleAndBind(dfg::diffeq(),
                             Allocation{{ResourceClass::Multiplier, 2},
                                        {ResourceClass::Adder, 1},
                                        {ResourceClass::Subtractor, 1}},
                             tau::paperLibrary());
  const fsm::DistributedControlUnit dcu = fsm::buildDistributed(sdfg);
  int coinciding = 0;
  for (const fsm::UnitController& c : dcu.controllers) {
    const SynthesizedFsm fast = synthesize(c.fsm);
    expectSameLogic(fast, referenceSynthesis(c.fsm), c.fsm.name());
    const std::vector<std::string>& outs = c.fsm.outputs();
    for (std::size_t re = 0; re < outs.size(); ++re) {
      for (std::size_t cco = 0; cco < outs.size(); ++cco) {
        if (outs[re].rfind("RE_", 0) != 0 ||
            outs[cco] != fsm::opCompletionSignal(outs[re].substr(3))) {
          continue;
        }
        ++coinciding;
        EXPECT_EQ(fast.outputLogic[re].cubes(), fast.outputLogic[cco].cubes())
            << c.fsm.name() << " " << outs[re];
      }
    }
  }
  EXPECT_GT(coinciding, 0);
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
  // 65 inputs pass a cube's 64 variables.
  EXPECT_THROW(synthesize(selfLoop("wide", 65)), Error);
}

// 23 inputs pass the Reference regime's 2^22-row tables but not the Fast
// regime's cubes.
TEST(Extract, WideFsmSynthesizesOnlyInFastMode) {
  const fsm::Fsm f = selfLoop("wide23", 23);
  const SynthesizedFsm s = synthesize(f);
  EXPECT_EQ(s.flipFlops, f.flipFlopCount());
  ASSERT_EQ(s.nextStateLogic.size(), static_cast<std::size_t>(s.flipFlops));
  for (const logic::Cover& c : s.nextStateLogic) {
    EXPECT_EQ(c.numVars(), s.flipFlops + 23);
  }
  logic::setMinimizerImpl(logic::MinimizerImpl::Reference);
  EXPECT_THROW(synthesize(f), Error);
  logic::setMinimizerImpl(logic::MinimizerImpl::Fast);
}

// ---- cube-domain extraction against the table path -------------------------

/// The table path: one sweep over every row of the state bits and inputs
/// records the transition that fires there (none on a don't-care row), each
/// function's table is filled from it, and the table engines minimize it
/// (logic::minimize: QM or the reference expand).  Functions that agree on
/// every transition share one table.  This is the cube-domain extraction's
/// oracle, at most 24 variables.
SynthesizedFsm tablePathSynthesis(const fsm::Fsm& f, EncodingStyle style) {
  const Encoding enc = encodeStates(f, style);
  const int numVars = enc.bits + static_cast<int>(f.inputs().size());
  const std::vector<bool> reachable = reachableStates(f);
  std::unordered_map<std::string, int> inputIndex;
  for (std::size_t i = 0; i < f.inputs().size(); ++i) {
    inputIndex.emplace(f.inputs()[i], static_cast<int>(i));
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> terms;
  std::vector<std::vector<int>> leaving(f.numStates());
  for (const fsm::Transition& t : f.transitions()) {
    terms.emplace_back();
    for (const fsm::GuardTerm& term : t.guard.terms()) {
      std::uint64_t care = 0;
      std::uint64_t value = 0;
      for (const auto& [sig, positive] : term.literals) {
        const std::uint64_t bit = std::uint64_t{1} << inputIndex.at(sig);
        care |= bit;
        if (positive) value |= bit;
      }
      terms.back().emplace_back(care, value);
    }
    leaving[static_cast<std::size_t>(t.from)].push_back(
        static_cast<int>(terms.size() - 1));
  }
  const std::uint64_t rows = std::uint64_t{1} << numVars;
  std::vector<int> firedAt(rows, -1);
  for (std::uint64_t row = 0; row < rows; ++row) {
    const int state = enc.stateOf(row & ((std::uint64_t{1} << enc.bits) - 1));
    if (state < 0 || !reachable[static_cast<std::size_t>(state)]) continue;
    const std::uint64_t in = row >> enc.bits;
    for (const int t : leaving[static_cast<std::size_t>(state)]) {
      for (const auto& [care, value] : terms[static_cast<std::size_t>(t)]) {
        if ((in & care) == value) firedAt[row] = t;
      }
    }
  }
  // Function fn's value on each transition.
  const auto valueOn = [&](int fn, int t) {
    const fsm::Transition& tr = f.transitions()[static_cast<std::size_t>(t)];
    if (fn < enc.bits) return enc.codeBit(tr.to, fn);
    const std::string& out =
        f.outputs()[static_cast<std::size_t>(fn - enc.bits)];
    return std::find(tr.outputs.begin(), tr.outputs.end(), out) !=
           tr.outputs.end();
  };
  std::map<std::vector<bool>, logic::Cover> minimized;
  const auto cover = [&](int fn) {
    std::vector<bool> sig;
    for (std::size_t t = 0; t < f.transitions().size(); ++t) {
      sig.push_back(valueOn(fn, static_cast<int>(t)));
    }
    const auto it = minimized.find(sig);
    if (it != minimized.end()) return it->second;
    logic::TruthTable tt(numVars);
    for (std::uint64_t row = 0; row < rows; ++row) {
      const int t = firedAt[row];
      tt.set(row, t < 0 ? logic::Ternary::DontCare
                  : sig[static_cast<std::size_t>(t)] ? logic::Ternary::One
                                                     : logic::Ternary::Zero);
    }
    return minimized.emplace(sig, logic::minimize(tt)).first->second;
  };
  SynthesizedFsm out;
  out.numInputs = static_cast<int>(f.inputs().size());
  out.numOutputs = static_cast<int>(f.outputs().size());
  out.numStates = static_cast<int>(f.numStates());
  out.flipFlops = enc.bits;
  for (int b = 0; b < enc.bits; ++b) out.nextStateLogic.push_back(cover(b));
  for (std::size_t o = 0; o < f.outputs().size(); ++o) {
    out.outputLogic.push_back(cover(enc.bits + static_cast<int>(o)));
  }
  return out;
}

/// The machines one test has compared: KISS2 text and encoding.
using SeenMachines = std::set<std::pair<std::string, EncodingStyle>>;

/// synthesize() against the table path for every controller of `dcu` in
/// both encodings, up to 24 variables.  A machine already in `seen` is
/// skipped.  Returns the number compared.
int expectCubeExtractionMatchesTables(const fsm::DistributedControlUnit& dcu,
                                      const std::string& label,
                                      SeenMachines& seen) {
  int compared = 0;
  for (const fsm::UnitController& c : dcu.controllers) {
    for (const EncodingStyle style :
         {EncodingStyle::Binary, EncodingStyle::OneHot}) {
      const int vars = encodeStates(c.fsm, style).bits +
                       static_cast<int>(c.fsm.inputs().size());
      if (vars > 24 || !seen.emplace(fsm::toKiss2(c.fsm), style).second) {
        continue;
      }
      expectSameLogic(synthesize(c.fsm, style),
                      tablePathSynthesis(c.fsm, style),
                      label + " " + c.fsm.name() +
                          (style == EncodingStyle::OneHot ? " onehot"
                                                          : " binary"));
      ++compared;
    }
  }
  return compared;
}

TEST(CubeExtraction, MatchesTablePathOnTable2Suite) {
  SeenMachines seen;
  int compared = 0;
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (const sched::BindingStrategy strategy :
         {sched::BindingStrategy::LeftEdge,
          sched::BindingStrategy::CliqueCover}) {
      const fsm::DistributedControlUnit raw =
          fsm::buildDistributed(sched::scheduleAndBind(
              b.graph, b.allocation, tau::paperLibrary(), strategy));
      const std::string label =
          b.name + " strategy " + std::to_string(static_cast<int>(strategy));
      compared +=
          expectCubeExtractionMatchesTables(raw, label + " raw", seen);
      compared += expectCubeExtractionMatchesTables(fsm::optimizeSignals(raw),
                                                    label, seen);
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(CubeExtraction, MatchesTablePathOnFirIirLoopLeaves) {
  core::FlowConfig cfg;
  cfg.allocation = dfg::firIirLoopAllocation();
  cfg.synthesizeArea = false;
  const core::HierFlowResult r = core::runHierFlow(dfg::firIirLoop(), cfg);
  SeenMachines seen;
  int compared = 0;
  for (const fsm::LeafControl& leaf : r.control.leaves) {
    compared += expectCubeExtractionMatchesTables(leaf.dcu, leaf.path, seen);
  }
  EXPECT_GT(compared, 0);
}

/// explore()'s allocation grid over `g` (1..4 units per class, capped at
/// the class's minimum chain cover), signal-optimized as the flow builds
/// it: every controller against the table path.  Returns the widest
/// controller's state bits + inputs (binary).
int expectCubeExtractionMatchesTablesOnGrid(const std::string& name,
                                            const dfg::Dfg& g) {
  std::vector<std::pair<ResourceClass, int>> classes;
  for (const ResourceClass cls :
       {ResourceClass::Multiplier, ResourceClass::Adder,
        ResourceClass::Subtractor, ResourceClass::Divider,
        ResourceClass::Logic}) {
    if (g.opsOfClass(cls).empty()) continue;
    const int chains = static_cast<int>(sched::minChainCover(g, cls).size());
    classes.emplace_back(cls, std::min(4, chains));
  }
  SeenMachines seen;
  int widest = 0;
  std::vector<int> counts(classes.size(), 1);
  for (bool more = true; more;) {
    Allocation alloc;
    std::string label = name;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      alloc[classes[i].first] = counts[i];
      label += ' ';
      label += std::to_string(counts[i]);
    }
    const fsm::DistributedControlUnit dcu = fsm::optimizeSignals(
        fsm::buildDistributed(
            sched::scheduleAndBind(g, alloc, tau::paperLibrary())));
    for (const fsm::UnitController& c : dcu.controllers) {
      widest = std::max(widest, c.fsm.flipFlopCount() +
                                    static_cast<int>(c.fsm.inputs().size()));
    }
    expectCubeExtractionMatchesTables(dcu, label, seen);
    std::size_t pos = 0;
    while (pos < counts.size() && ++counts[pos] > classes[pos].second) {
      counts[pos++] = 1;
    }
    more = pos < counts.size();
  }
  return widest;
}

TEST(CubeExtraction, MatchesTablePathOnDiffeqExploreGrid) {
  expectCubeExtractionMatchesTablesOnGrid("Diff.", dfg::diffeq());
}

// AR-lattice with one adder gives the 20-variable binary controller.
TEST(CubeExtraction, MatchesTablePathOnArLatticeExploreGrid) {
  EXPECT_GE(expectCubeExtractionMatchesTablesOnGrid("AR-lattice",
                                                    dfg::arLattice()),
            20);
}

}  // namespace
}  // namespace tauhls::synth
