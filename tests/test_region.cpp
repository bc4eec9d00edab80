// Hierarchical regions: textio round-trips, activation traces, composed
// scheduling/control/simulation cross-checks against the flat-inlined
// unrolled reference, the new verify rules (DFG009/DFG010, SCH012,
// MDL009/MDL010), the hierarchical flow, and the CLI routing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/cli.hpp"
#include "core/hier_flow.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/dot.hpp"
#include "dfg/random.hpp"
#include "dfg/region.hpp"
#include "dfg/textio.hpp"
#include "fsm/hierarchical.hpp"
#include "sched/region_schedule.hpp"
#include "sim/region_sim.hpp"
#include "testutil.hpp"
#include "verify/region_check.hpp"

namespace tauhls {
namespace {

using dfg::BranchChoices;
using dfg::RegionProgram;
using dfg::ResourceClass;

// ---------------------------------------------------------------- textio --

TEST(RegionTextio, RoundTrip) {
  RegionProgram p = dfg::parseProgram(dfg::firIirLoopText(), "fir_iir_loop");
  const std::string printed = dfg::printProgram(p);
  RegionProgram q = dfg::parseProgram(printed, "fir_iir_loop");
  EXPECT_EQ(printed, dfg::printProgram(q));
  EXPECT_NO_THROW(dfg::validateRegionProgram(q));
}

TEST(RegionTextio, BlockFreeInputStaysFlat) {
  const std::string text = "in a, b\nm = a * b\ns = m + a\nout s\n";
  RegionProgram p = dfg::parseProgram(text, "flat");
  EXPECT_TRUE(p.isFlat());
  dfg::Dfg g = dfg::parseDfg(text, "flat");
  EXPECT_EQ(dfg::printDfg(p.root.body), dfg::printDfg(g));
  EXPECT_EQ(dfg::printProgram(p), dfg::printDfg(g));
}

TEST(RegionTextio, RejectsMalformedBlocks) {
  EXPECT_THROW(dfg::parseProgram("in a\n{\nx = a + a\n}\nout x\n"), Error);
  EXPECT_THROW(dfg::parseProgram("in a\nloop {\nx = a + a\n}\nout x\n"), Error);
  // `if` requires an explicit else branch.
  EXPECT_THROW(dfg::parseProgram("in a, c\nif c {\nx = a + a\n}\nout x\n"),
               Error);
}

// ------------------------------------------------------- structure & paths --

TEST(RegionStructure, FirIirLoopShape) {
  RegionProgram p = dfg::firIirLoop();
  std::vector<std::string> paths;
  for (const dfg::LeafRef& leaf : dfg::collectLeaves(p)) paths.push_back(leaf.path);
  EXPECT_EQ(paths, (std::vector<std::string>{"s0", "s1_l_s0", "s2", "s3_t_s0",
                                             "s3_e_s0"}));
  EXPECT_EQ(dfg::condRegionPaths(p), std::vector<std::string>{"s3"});

  // Both branches appear in the sequencer's static activation list; the
  // dynamic trace under the default (then) choices runs exactly one of them.
  EXPECT_EQ(fsm::sequencerActivations(p).size(), 8u);
  BranchChoices then = dfg::completeBranchChoices(p, {});
  ASSERT_EQ(then.size(), 1u);
  EXPECT_TRUE(then.at("s3"));
  std::vector<std::string> trace = dfg::activationTrace(p, then);
  EXPECT_EQ(trace,
            (std::vector<std::string>{"s0", "s1_l_s0", "s1_l_s0", "s1_l_s0",
                                      "s1_l_s0", "s2", "s3_t_s0"}));
  std::vector<std::string> other = dfg::activationTrace(p, {{"s3", false}});
  EXPECT_EQ(other.back(), "s3_e_s0");
}

TEST(RegionStructure, FlattenMatchesTrace) {
  RegionProgram p = dfg::firIirLoop();
  BranchChoices choices = dfg::completeBranchChoices(p, {});
  dfg::Dfg flat = dfg::flattenProgram(p, choices);
  EXPECT_NO_THROW(flat.validate());
  // 17 TAU multiplications along the then-trace: 1 + 4*3 + 3 + 1.
  EXPECT_EQ(flat.opsOfClass(ResourceClass::Multiplier).size(), 17u);
  // Every activation contributes its ops under a distinct a<k>_ prefix.
  std::size_t total = 0;
  for (const std::string& path : dfg::activationTrace(p, choices)) {
    for (const dfg::LeafRef& leaf : dfg::collectLeaves(p)) {
      if (leaf.path == path) total += leaf.region->body.numOps();
    }
  }
  EXPECT_EQ(flat.numOps(), total);
}

// ------------------------------------------------ composed vs flat (sim) --

TEST(RegionSim, ComposedHistogramMatchesFlatReference) {
  RegionProgram p = dfg::firIirLoop();
  const dfg::Allocation alloc = dfg::firIirLoopAllocation();
  const tau::ResourceLibrary lib = tau::paperLibrary();
  for (sched::BindingStrategy strategy :
       {sched::BindingStrategy::LeftEdge, sched::BindingStrategy::CliqueCover}) {
    sched::RegionSchedule rs = sched::scheduleRegions(p, alloc, lib, strategy);
    for (bool thenBranch : {true, false}) {
      BranchChoices choices = {{"s3", thenBranch}};
      sched::ScheduledDfg flat = sched::flattenScheduled(rs, choices);
      for (sim::ControlStyle style :
           {sim::ControlStyle::Distributed, sim::ControlStyle::CentSync}) {
        sim::MakespanHistogram composed = sim::composedHistogram(rs, style, choices);
        sim::MakespanHistogram reference = sim::makespanHistogram(flat, style);
        EXPECT_EQ(composed.tauCount, reference.tauCount);
        // Bucket-for-bucket integer identity => every statistic derived
        // through the shared weighting function is bit-identical.
        EXPECT_EQ(composed.buckets, reference.buckets);
        for (double P : {0.9, 0.7, 0.5}) {
          EXPECT_EQ(sim::histogramAverageCycles(composed, P),
                    sim::histogramAverageCycles(reference, P));
        }
        EXPECT_EQ(sim::histogramBestCycles(composed),
                  sim::histogramBestCycles(reference));
        EXPECT_EQ(sim::histogramWorstCycles(composed),
                  sim::histogramWorstCycles(reference));
      }
    }
  }
}

TEST(RegionSim, BitIdenticalAcrossThreadCounts) {
  RegionProgram p = dfg::firIirLoop();
  sched::RegionSchedule rs = sched::scheduleRegions(
      p, dfg::firIirLoopAllocation(), tau::paperLibrary());
  BranchChoices choices = dfg::completeBranchChoices(p, {});
  sched::ScheduledDfg flat = sched::flattenScheduled(rs, choices);
  const std::vector<double> ps = {0.9, 0.7, 0.5};

  std::vector<sim::MakespanHistogram> flatHists;
  std::vector<sim::LatencyComparison> latencies;
  for (int threads : {1, 2, 8}) {
    common::setGlobalThreadCount(threads);
    flatHists.push_back(
        sim::makespanHistogram(flat, sim::ControlStyle::Distributed));
    latencies.push_back(sim::composedLatency(rs, choices, ps));
  }
  common::setGlobalThreadCount(common::configuredThreadCount());

  for (std::size_t i = 1; i < flatHists.size(); ++i) {
    EXPECT_EQ(flatHists[i].buckets, flatHists[0].buckets);
    EXPECT_EQ(latencies[i].tau.averageNs, latencies[0].tau.averageNs);
    EXPECT_EQ(latencies[i].dist.averageNs, latencies[0].dist.averageNs);
    EXPECT_EQ(latencies[i].enhancementPercent, latencies[0].enhancementPercent);
  }
  EXPECT_EQ(latencies[0].dist.bestNs, latencies[0].tau.bestNs);  // all-SD case
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_LE(latencies[0].dist.averageNs[i], latencies[0].tau.averageNs[i]);
  }
}

/// `p = x * c` then `loop trips { p = p * c }` on one multiplier: a chain
/// of trips + 1 TAU ops, each one cycle under SD and two under LD.
sim::LatencyComparison mulChainLatency(int trips,
                                       const std::vector<double>& ps) {
  const RegionProgram p = dfg::parseProgram(
      "in x, c\np = x * c\nloop " + std::to_string(trips) +
          " {\np = p * c\n}\nout p\n",
      "mul_chain");
  const sched::RegionSchedule rs = sched::scheduleRegions(
      p, {{dfg::ResourceClass::Multiplier, 1}}, tau::paperLibrary());
  return sim::composedLatency(rs, dfg::completeBranchChoices(p, {}), ps);
}

TEST(RegionSim, ComposedChainOf65TauOpsIsExact) {
  const std::vector<double> ps = {0.9, 0.7, 0.5};
  const sim::LatencyComparison l = mulChainLatency(64, ps);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double expected = 65 * (2.0 - ps[i]) * 15.0;
    EXPECT_NEAR(l.dist.averageNs[i], expected, 1e-9 * expected) << ps[i];
  }
  EXPECT_EQ(l.dist.bestNs, 65 * 15.0);
  EXPECT_EQ(l.dist.worstNs, 2 * 65 * 15.0);
}

TEST(RegionSim, ComposedCountOverflowThrows) {
  // C(71, 35) masks share one bucket: past 64 bits, so the composition
  // refuses instead of wrapping.
  try {
    mulChainLatency(70, {0.5});
    ADD_FAILURE() << "71 TAU ops composed without an overflow error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("71 TAU ops"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------- sequencer FSM --

TEST(RegionSequencer, WaitStatesAndHandshake) {
  RegionProgram p = dfg::firIirLoop();
  fsm::Fsm seq = fsm::buildRegionSequencer(p);
  std::vector<std::string> acts = fsm::sequencerActivations(p);
  EXPECT_EQ(seq.numStates(), acts.size() + 1);  // INIT + one wait per activation
  for (std::size_t k = 0; k < acts.size(); ++k) {
    EXPECT_GE(seq.findState("W" + std::to_string(k) + "_" + acts[k]), 0)
        << "missing wait state for activation " << k;
  }
  EXPECT_EQ(fsm::regionStartSignal("s1_l"), "ST_s1_l");
  EXPECT_EQ(fsm::regionDoneSignal("s1_l"), "DN_s1_l");
  EXPECT_EQ(fsm::branchSelectSignal("s3"), "SEL_s3");
}

TEST(RegionSequencer, CondFirstProgram) {
  RegionProgram p = dfg::parseProgram(
      "in a, b, s\nif s {\nx = a * b\n} else {\nx = a + b\n}\nout x\n", "pick");
  dfg::validateRegionProgram(p);
  EXPECT_NO_THROW(fsm::buildRegionSequencer(p));
  std::vector<std::string> cond = dfg::condRegionPaths(p);
  ASSERT_EQ(cond.size(), 1u);
  std::vector<std::string> trace = dfg::activationTrace(p, {{cond[0], false}});
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_NE(trace[0].find("_e"), std::string::npos) << trace[0];
}

// ------------------------------------------------------- new verify rules --

TEST(RegionVerify, Dfg009FiresOnBadStructure) {
  RegionProgram p = dfg::firIirLoop();
  p.outputs.push_back("never_defined");
  EXPECT_THROW(dfg::validateRegionProgram(p), Error);
  verify::Report report;
  verify::checkRegionProgram(p, report);
  EXPECT_TRUE(report.has("DFG009"));
  EXPECT_TRUE(report.hasErrors());

  // Bad conditional arity is also DFG009.
  RegionProgram q = dfg::firIirLoop();
  q.root.children[3].children.pop_back();
  verify::Report report2;
  verify::checkRegionProgram(q, report2);
  EXPECT_TRUE(report2.has("DFG009"));
}

TEST(RegionVerify, Dfg010FiresOnBadTripCount) {
  RegionProgram p = dfg::firIirLoop();
  p.root.children[1].tripCount = 0;
  verify::Report report;
  verify::checkRegionProgram(p, report);
  EXPECT_TRUE(report.has("DFG010"));
}

TEST(RegionVerify, CleanProgramHasNoStructureErrors) {
  verify::Report report;
  verify::checkRegionProgram(dfg::firIirLoop(), report);
  EXPECT_FALSE(report.has("DFG009"));
  EXPECT_FALSE(report.has("DFG010"));
  EXPECT_FALSE(report.hasErrors());
}

TEST(RegionVerify, Sch012FiresOnSharedHardwareMismatch) {
  RegionProgram p = dfg::firIirLoop();
  sched::RegionSchedule rs = sched::scheduleRegions(
      p, dfg::firIirLoopAllocation(), tau::paperLibrary());
  {
    verify::Report report;
    verify::checkRegionSchedule(rs, report);
    EXPECT_FALSE(report.has("SCH012")) << renderText(report);
  }
  {
    // One leaf claiming a different clock period breaks the shared clock.
    sched::RegionSchedule bad = rs;
    bad.leaves.begin()->second.clockNs += 1.0;
    verify::Report report;
    verify::checkRegionSchedule(bad, report);
    EXPECT_TRUE(report.has("SCH012"));
  }
  {
    // A binding using more units than the shared allocation provides.
    sched::RegionSchedule bad = rs;
    bad.allocation[ResourceClass::Multiplier] = 1;
    verify::Report report;
    verify::checkRegionSchedule(bad, report);
    EXPECT_TRUE(report.has("SCH012"));
  }
}

TEST(RegionVerify, Mdl009FiresOnBrokenHandshake) {
  RegionProgram p = dfg::firIirLoop();
  sched::RegionSchedule rs = sched::scheduleRegions(
      p, dfg::firIirLoopAllocation(), tau::paperLibrary());
  fsm::HierarchicalControlUnit hcu = fsm::buildHierarchicalControl(rs);
  {
    verify::Report report;
    verify::checkComposedControl(hcu, p, report);
    EXPECT_FALSE(report.has("MDL009")) << renderText(report);
    ASSERT_TRUE(report.has("MDL010"));
    EXPECT_EQ(report.withCode("MDL010")[0].severity, verify::Severity::Info);
  }
  {
    // A sequencer built for a different program misses this program's wait
    // states entirely -- the handshake check must reject it.
    fsm::HierarchicalControlUnit broken = hcu;
    broken.sequencer = fsm::buildRegionSequencer(dfg::parseProgram(
        "in a\nloop 2 {\nx = a + a\n}\nout x\n", "other"));
    verify::Report report;
    verify::checkComposedControl(broken, p, report);
    EXPECT_TRUE(report.has("MDL009"));
  }
}

// ------------------------------------------------------------- hier flow --

core::FlowConfig regionFlowConfig() {
  core::FlowConfig cfg;
  cfg.allocation = dfg::firIirLoopAllocation();
  cfg.synthesizeArea = false;
  return cfg;
}

TEST(HierFlow, EndToEndOnFirIirLoop) {
  core::HierFlowResult r = core::runHierFlow(dfg::firIirLoop(), regionFlowConfig());
  EXPECT_EQ(r.schedule.leaves.size(), 5u);
  EXPECT_EQ(r.activations.size(), 8u);
  EXPECT_EQ(r.totalTauOps, 17);
  EXPECT_FALSE(r.diagnostics.hasErrors()) << renderText(r.diagnostics);
  EXPECT_TRUE(r.diagnostics.has("MDL010"));
  ASSERT_EQ(r.latency.enhancementPercent.size(), 3u);
  for (double e : r.latency.enhancementPercent) EXPECT_GE(e, 0.0);
  EXPECT_GT(r.latency.dist.worstNs, r.latency.dist.bestNs);
}

TEST(HierFlow, EditingOneLeafRecompilesOnlyThatRegion) {
  auto cache = std::make_shared<core::ArtifactCache>();
  core::FlowConfig cfg = regionFlowConfig();
  core::runHierFlow(dfg::firIirLoop(), cfg, {}, cache);
  const core::CacheStats first = cache->stats();
  EXPECT_GT(first.misses, 0u);

  // Same program again: everything is a cache hit.
  core::runHierFlow(dfg::firIirLoop(), cfg, {}, cache);
  const core::CacheStats second = cache->stats();
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_GT(second.hits, first.hits);

  // Edit only the else branch: the four untouched leaves stay cached, so the
  // recompile costs at most one leaf's share of the original pass runs.
  std::string text = dfg::firIirLoopText();
  const std::string from = "y = r1 + g0";
  text.replace(text.find(from), from.size(), "y = g0 + r1");
  RegionProgram edited = dfg::parseProgram(text, "fir_iir_loop");
  dfg::validateRegionProgram(edited);
  core::runHierFlow(edited, cfg, {}, cache);
  const core::CacheStats third = cache->stats();
  EXPECT_GT(third.misses, second.misses);
  EXPECT_LE(third.misses - second.misses, first.misses / 4);
}

TEST(HierFlow, ComposedLatencyMatchesFlatHistogramStatistics) {
  core::FlowConfig cfg = regionFlowConfig();
  core::HierFlowResult r = core::runHierFlow(dfg::firIirLoop(), cfg);
  sched::ScheduledDfg flat = sched::flattenScheduled(r.schedule, r.branches);
  sim::MakespanHistogram h =
      sim::makespanHistogram(flat, sim::ControlStyle::Distributed);
  const double clock = r.schedule.clockNs();
  for (std::size_t i = 0; i < cfg.ps.size(); ++i) {
    EXPECT_EQ(r.latency.dist.averageNs[i],
              sim::histogramAverageCycles(h, cfg.ps[i]) * clock);
  }
  EXPECT_EQ(r.latency.dist.bestNs, sim::histogramBestCycles(h) * clock);
  EXPECT_EQ(r.latency.dist.worstNs, sim::histogramWorstCycles(h) * clock);
}

// ------------------------------------------------------------------- CLI --

TEST(RegionCli, ParseBranchesSpec) {
  BranchChoices c = core::parseBranchesSpec("s3=else,s1_l_t0=then");
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.at("s3"));
  EXPECT_TRUE(c.at("s1_l_t0"));
  EXPECT_TRUE(core::parseBranchesSpec("").empty());
  EXPECT_THROW(core::parseBranchesSpec("s3=maybe"), Error);
  EXPECT_THROW(core::parseBranchesSpec("s3"), Error);
}

class RegionCliFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::testScratchDir();
    path_ = dir_ + "test_region_cli_tmp.dfg";
    std::ofstream out(path_);
    out << dfg::firIirLoopText();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  core::CliOptions baseOptions() {
    core::CliOptions o;
    o.inputPath = path_;
    o.allocation = core::parseAllocationSpec("mult=2,add=1");
    return o;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(RegionCliFile, FlowPrintsComposedSummary) {
  core::CliOptions o = baseOptions();
  std::ostringstream out, err;
  EXPECT_EQ(core::runCli(o, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("5 regions"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("LT_DIST"), std::string::npos);
}

TEST_F(RegionCliFile, UnsupportedOutputsAreRejectedWithDiagnostic) {
  core::CliOptions o = baseOptions();
  o.verilogPath = "never_written.v";
  std::ostringstream out, err;
  EXPECT_EQ(core::runCli(o, out, err), 1);
  EXPECT_NE(err.str().find("no composed form"), std::string::npos) << err.str();

  core::CliOptions lint = baseOptions();
  lint.lint = true;
  lint.lintTiming = true;
  std::ostringstream lout, lerr;
  EXPECT_EQ(core::runCli(lint, lout, lerr), 1);
  EXPECT_NE(lerr.str().find("no composed form"), std::string::npos);
}

TEST_F(RegionCliFile, LintAcceptsHierarchicalInput) {
  core::CliOptions o = baseOptions();
  o.lint = true;
  std::ostringstream out, err;
  EXPECT_EQ(core::runCli(o, out, err), 0) << out.str() << err.str();
  EXPECT_NE(out.str().find("MDL010"), std::string::npos) << out.str();
}

// ------------------------------------------------------------------- DOT --

TEST(RegionDot, HierarchicalProgramsRenderClusters) {
  RegionProgram p = dfg::firIirLoop();
  const std::string dot = dfg::toDot(p);
  EXPECT_NE(dot.find("compound=true"), std::string::npos);
  EXPECT_NE(dot.find("cluster_"), std::string::npos);
  EXPECT_NE(dot.find("loop x4"), std::string::npos);
  EXPECT_NE(dot.find("if sel"), std::string::npos);
}

TEST(RegionDot, FlatProgramsRenderUnchanged) {
  RegionProgram p = dfg::parseProgram("in a, b\nm = a * b\nout m\n", "flat");
  EXPECT_EQ(dfg::toDot(p), dfg::toDot(p.root.body));
}

// ---------------------------------------------------------------- random --

TEST(RandomRegions, DeterministicAndValid) {
  dfg::RandomRegionSpec spec;
  spec.leaf.numOps = 5;
  spec.leaf.numInputs = 3;
  spec.numBlocks = 4;
  EXPECT_EQ(dfg::printProgram(dfg::randomRegionProgram(spec)),
            dfg::printProgram(dfg::randomRegionProgram(spec)));
  bool sawHierarchy = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    spec.seed = seed;
    RegionProgram p = dfg::randomRegionProgram(spec);
    EXPECT_NO_THROW(dfg::validateRegionProgram(p)) << "seed " << seed;
    if (!p.isFlat() && p.root.children.size() > 0) {
      for (const dfg::LeafRef& leaf : dfg::collectLeaves(p)) {
        sawHierarchy |= leaf.path.find('_') != std::string::npos;
      }
    }
  }
  EXPECT_TRUE(sawHierarchy) << "no loop/cond produced across 8 seeds";
  // A random hierarchical program schedules end to end.
  spec.seed = 3;
  EXPECT_NO_THROW(sched::scheduleRegions(dfg::randomRegionProgram(spec), {},
                                         tau::paperLibrary()));
}

TEST(RandomRegions, LayeredLeafControls) {
  dfg::RandomDfgSpec spec;
  spec.numLayers = 3;
  spec.layerWidth = 4;
  dfg::Dfg g = dfg::randomDfg(spec);
  EXPECT_EQ(g.numOps(), 12u);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(dfg::printDfg(dfg::randomDfg(spec)), dfg::printDfg(g));

  dfg::RandomDfgSpec allAdd = spec;
  allAdd.mulPermille = 0;
  allAdd.addVsSubPermille = 1000;
  dfg::Dfg h = dfg::randomDfg(allAdd);
  EXPECT_EQ(h.opsOfClass(ResourceClass::Subtractor).size(), 0u);
  EXPECT_EQ(h.opsOfClass(ResourceClass::Multiplier).size(), 0u);
}

}  // namespace
}  // namespace tauhls
