#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dfg/analysis.hpp"
#include "dfg/dot.hpp"
#include "dfg/graph.hpp"
#include "dfg/random.hpp"
#include "dfg/textio.hpp"
#include "testutil.hpp"

namespace tauhls::dfg {
namespace {

using test::diamond;
using test::isTopologicalOrder;
using test::mulChain;
using test::parallelMuls;

TEST(OpKind, NamesRoundTrip) {
  for (OpKind k : {OpKind::Input, OpKind::Add, OpKind::Sub, OpKind::Mul,
                   OpKind::Div, OpKind::Compare, OpKind::Shift, OpKind::And,
                   OpKind::Or, OpKind::Xor, OpKind::Neg}) {
    auto parsed = parseOpKind(opKindName(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parseOpKind("bogus").has_value());
}

TEST(OpKind, ResourceClasses) {
  EXPECT_EQ(resourceClassOf(OpKind::Mul), ResourceClass::Multiplier);
  EXPECT_EQ(resourceClassOf(OpKind::Add), ResourceClass::Adder);
  EXPECT_EQ(resourceClassOf(OpKind::Sub), ResourceClass::Subtractor);
  EXPECT_EQ(resourceClassOf(OpKind::Compare), ResourceClass::Subtractor);
  EXPECT_EQ(resourceClassOf(OpKind::Neg), ResourceClass::Subtractor);
  EXPECT_EQ(resourceClassOf(OpKind::Input), ResourceClass::None);
}

TEST(OpKind, Arity) {
  EXPECT_EQ(opKindArity(OpKind::Input), 0);
  EXPECT_EQ(opKindArity(OpKind::Neg), 1);
  EXPECT_EQ(opKindArity(OpKind::Mul), 2);
}

TEST(Dfg, BuildAndQuery) {
  Dfg g = diamond();
  EXPECT_EQ(g.numNodes(), 5u);
  EXPECT_EQ(g.numOps(), 3u);
  EXPECT_EQ(g.inputIds().size(), 2u);
  EXPECT_EQ(g.opsOfClass(ResourceClass::Multiplier).size(), 2u);
  EXPECT_EQ(g.opsOfClass(ResourceClass::Adder).size(), 1u);
  NodeId s = g.findByName("s");
  ASSERT_NE(s, kNoNode);
  EXPECT_EQ(g.dataPredecessors(s).size(), 2u);
  EXPECT_TRUE(g.dataSuccessors(s).empty());
  NodeId a = g.findByName("a");
  EXPECT_EQ(g.dataSuccessors(a).size(), 2u);
}

TEST(Dfg, DuplicateNamesRejected) {
  Dfg g;
  g.addInput("a");
  EXPECT_THROW(g.addInput("a"), Error);
}

TEST(Dfg, ArityMismatchRejected) {
  Dfg g;
  NodeId a = g.addInput("a");
  EXPECT_THROW(g.addOp(OpKind::Mul, {a}), Error);
  EXPECT_THROW(g.addOp(OpKind::Neg, {a, a}), Error);
}

TEST(Dfg, DanglingOperandRejected) {
  Dfg g;
  NodeId a = g.addInput("a");
  EXPECT_THROW(g.addOp(OpKind::Mul, {a, NodeId{99}}), Error);
}

TEST(Dfg, ScheduleArcRules) {
  Dfg g = diamond();
  NodeId m1 = g.findByName("m1");
  NodeId m2 = g.findByName("m2");
  NodeId a = g.findByName("a");
  g.addScheduleArc(m1, m2);
  EXPECT_EQ(g.scheduleArcs().size(), 1u);
  g.addScheduleArc(m1, m2);  // idempotent
  EXPECT_EQ(g.scheduleArcs().size(), 1u);
  EXPECT_THROW(g.addScheduleArc(m2, m1), Error);  // cycle
  EXPECT_THROW(g.addScheduleArc(m1, m1), Error);  // self-loop
  EXPECT_THROW(g.addScheduleArc(a, m1), Error);   // input endpoint
  EXPECT_EQ(g.scheduleArcs().size(), 1u);
  g.clearScheduleArcs();
  EXPECT_TRUE(g.scheduleArcs().empty());
}

TEST(Dfg, CombinedPredecessorsIncludeScheduleArcs) {
  Dfg g = diamond();
  NodeId m1 = g.findByName("m1");
  NodeId m2 = g.findByName("m2");
  g.addScheduleArc(m1, m2);
  auto preds = g.combinedPredecessors(m2);
  EXPECT_NE(std::find(preds.begin(), preds.end(), m1), preds.end());
  auto dataPreds = g.dataPredecessors(m2);
  EXPECT_EQ(std::find(dataPreds.begin(), dataPreds.end(), m1), dataPreds.end());
}

TEST(Analysis, TopologicalOrderValid) {
  Dfg g = diamond();
  EXPECT_TRUE(isTopologicalOrder(g, topologicalOrder(g)));
  Dfg c = mulChain(7);
  EXPECT_TRUE(isTopologicalOrder(c, topologicalOrder(c)));
}

TEST(Analysis, CriticalPathChain) {
  Dfg c = mulChain(6);
  EXPECT_EQ(criticalPathLength(c, unitDurations(c)), 6);
  // Double-weight multiplications.
  auto dur2 = [&c](NodeId id) { return c.isInput(id) ? 0 : 2; };
  EXPECT_EQ(criticalPathLength(c, dur2), 12);
}

TEST(Analysis, CriticalPathParallel) {
  Dfg p = parallelMuls(5);
  EXPECT_EQ(criticalPathLength(p, unitDurations(p)), 1);
}

TEST(Analysis, ScheduleArcsLengthenPaths) {
  Dfg p = parallelMuls(3);
  auto ops = p.opIds();
  EXPECT_EQ(criticalPathLength(p, unitDurations(p)), 1);
  p.addScheduleArc(ops[0], ops[1]);
  p.addScheduleArc(ops[1], ops[2]);
  EXPECT_EQ(criticalPathLength(p, unitDurations(p)), 3);
}

TEST(Analysis, Reaches) {
  Dfg g = diamond();
  NodeId a = g.findByName("a");
  NodeId s = g.findByName("s");
  NodeId m1 = g.findByName("m1");
  EXPECT_TRUE(reaches(g, a, s));
  EXPECT_TRUE(reaches(g, m1, s));
  EXPECT_FALSE(reaches(g, s, a));
  EXPECT_FALSE(reaches(g, m1, m1));
}

TEST(Analysis, ReachabilityClosureMatchesReaches) {
  Dfg g = dfg::randomDfg({.seed = 42, .numOps = 20, .numInputs = 4});
  auto closure = reachabilityClosure(g);
  for (NodeId a = 0; a < g.numNodes(); ++a) {
    for (NodeId b = 0; b < g.numNodes(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(closure[a][b], reaches(g, a, b)) << "a=" << a << " b=" << b;
    }
  }
}

TEST(Dot, ContainsNodesAndArcs) {
  Dfg g = diamond();
  NodeId m1 = g.findByName("m1");
  NodeId m2 = g.findByName("m2");
  g.addScheduleArc(m1, m2);
  std::string dot = toDot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("m1"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  std::string noSched = toDot(g, {.showScheduleArcs = false});
  EXPECT_EQ(noSched.find("style=dashed"), std::string::npos);
}

TEST(TextIo, ParsePrintRoundTrip) {
  const std::string src =
      "in a, b, c\n"
      "m1 = a * b\n"
      "m2 = b * c\n"
      "s1 = m1 + m2\n"
      "n1 = - s1\n"
      "cmp1 = n1 < a\n"
      "out cmp1\n";
  Dfg g = parseDfg(src, "t");
  EXPECT_EQ(g.numOps(), 5u);
  EXPECT_EQ(g.outputs().size(), 1u);
  Dfg g2 = parseDfg(printDfg(g), "t2");
  EXPECT_EQ(g2.numOps(), g.numOps());
  EXPECT_EQ(printDfg(g2), printDfg(g));
}

TEST(TextIo, SemicolonsAndComments) {
  Dfg g = parseDfg("in a, b # inputs\nm = a * b; out m\n");
  EXPECT_EQ(g.numOps(), 1u);
  EXPECT_EQ(g.outputs().size(), 1u);
}

TEST(TextIo, ErrorsAreLineNumbered) {
  try {
    parseDfg("in a\nz = a * missing\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST(TextIo, RejectsMalformedStatements) {
  EXPECT_THROW(parseDfg("in a\nx = a *\n"), Error);
  EXPECT_THROW(parseDfg("in a\nx = a ? a\n"), Error);
  EXPECT_THROW(parseDfg("out nothing\n"), Error);
}

// Parse failures are ParseErrors carrying the source name and line, for
// flat and region text alike.
TEST(TextIo, ParseErrorsNameSourceAndLine) {
  for (const char* text : {"in a\nx = a *\n", "in a\nloop 2 {\nx = a *\n}\n",
                           "in a\nx = a + a\n\nout y\n"}) {
    try {
      parseProgram(text, "design");
      FAIL() << "expected throw for " << text;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find("design: dfg parse error at line " +
                          std::to_string(e.line())),
                0u)
          << what;
      EXPECT_EQ(what.find("unreachable"), std::string::npos) << what;
    }
  }
  try {
    parseDfg("in a\n\nout y\n", "d");
    FAIL() << "expected throw";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.detail(), "output 'y' is undefined");
  }
}

class RandomDfgProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDfgProperty, GeneratesValidAcyclicGraphs) {
  RandomDfgSpec spec;
  spec.seed = GetParam();
  spec.numOps = 10 + static_cast<int>(GetParam() % 30);
  Dfg g = randomDfg(spec);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.numOps(), static_cast<std::size_t>(spec.numOps));
  EXPECT_TRUE(isTopologicalOrder(g, topologicalOrder(g)));
  EXPECT_FALSE(g.outputs().empty());
}

TEST_P(RandomDfgProperty, DeterministicForSeed) {
  RandomDfgSpec spec;
  spec.seed = GetParam();
  EXPECT_EQ(printDfg(randomDfg(spec)), printDfg(randomDfg(spec)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDfgProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace tauhls::dfg
