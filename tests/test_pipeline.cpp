// Tests for the declarative pass pipeline (core/pipeline.hpp): bit-identity
// of the pipelined flow against an inline replica of the pre-pipeline
// monolithic sequence, demand-driven (lazy) evaluation, content-addressed
// cache behaviour across thread counts and config changes, FlowConfig
// validation and the chrome://tracing export.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/json.hpp"
#include "core/pipeline.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/kiss.hpp"
#include "fsm/product.hpp"
#include "fsm/signal_opt.hpp"
#include "rtl/verilog.hpp"
#include "verify/symbolic_check.hpp"
#include "verify/verify.hpp"

namespace tauhls::core {
namespace {

// The pre-pipeline runFlow, reproduced verbatim from the monolithic
// implementation: the reference the pipeline must match bit for bit.
FlowResult seedFlow(const dfg::Dfg& graph, const FlowConfig& config) {
  FlowResult r;
  r.scheduled = sched::scheduleAndBind(graph, config.allocation,
                                       config.library, config.strategy);
  common::parallelFor(3, [&](std::size_t task) {
    switch (task) {
      case 0: {
        fsm::DistributedControlUnit dcu = fsm::buildDistributed(r.scheduled);
        if (config.optimizeSignals) {
          r.distributed = fsm::optimizeSignals(dcu, &r.signalStats);
        } else {
          r.distributed = std::move(dcu);
        }
        break;
      }
      case 1:
        r.centSync = fsm::buildCentSync(r.scheduled);
        break;
      case 2: {
        sim::LatencyOptions lo;
        lo.mcSamples = config.mcSamples;
        lo.mcMaxSamples = config.mcMaxSamples;
        lo.mcTargetHalfWidth = config.mcTargetHalfWidth;
        r.latency = sim::compareLatencies(r.scheduled, config.ps, lo);
        break;
      }
    }
  });
  if (config.verify) {
    verify::VerifyOptions vo;
    vo.requestedAllocation = &config.allocation;
    vo.centSync = &r.centSync;
    vo.modelCheckMaxStates = config.verifyMaxStates;
    r.diagnostics = verify::verifyFlow(r.scheduled, r.distributed, vo);
    if (r.diagnostics.hasErrors()) {
      throw Error("static verification failed:\n" +
                  verify::renderText(r.diagnostics));
    }
  }
  if (config.buildCentFsm) {
    fsm::ProductOptions opt;
    opt.maxStates = config.centFsmMaxStates;
    r.centFsm = fsm::buildProduct(r.distributed, opt);
  }
  if (config.synthesizeArea) {
    const std::size_t rows = r.centFsm ? 3 : 2;
    common::parallelFor(rows, [&](std::size_t row) {
      switch (row) {
        case 0:
          r.distArea = synth::distributedArea(r.distributed, config.encoding);
          break;
        case 1:
          r.centSyncArea =
              synth::areaRow("CENT-SYNC-FSM", r.centSync, config.encoding);
          break;
        case 2:
          r.centFsmArea =
              synth::areaRow("CENT-FSM", *r.centFsm, config.encoding);
          break;
      }
    });
  }
  return r;
}

void expectSameRow(const sim::LatencyRow& a, const sim::LatencyRow& b) {
  EXPECT_EQ(a.bestNs, b.bestNs);
  EXPECT_EQ(a.worstNs, b.worstNs);
  EXPECT_EQ(a.averageNs, b.averageNs);  // exact double equality
}

void expectSameArea(const synth::AreaRow& a, const synth::AreaRow& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.inputs, b.inputs);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.flipFlops, b.flipFlops);
  EXPECT_EQ(a.combArea, b.combArea);
  EXPECT_EQ(a.seqArea, b.seqArea);
}

void expectSameFlowResult(const FlowResult& a, const FlowResult& b) {
  // Latency statistics, exact to the last bit.
  EXPECT_EQ(a.latency.ps, b.latency.ps);
  expectSameRow(a.latency.tau, b.latency.tau);
  expectSameRow(a.latency.dist, b.latency.dist);
  EXPECT_EQ(a.latency.enhancementPercent, b.latency.enhancementPercent);
  // Controllers: the emitted RTL and KISS2 renderings are complete
  // serializations, so string equality is structural equality.
  EXPECT_EQ(rtl::emitPackage(a.distributed, "eq"),
            rtl::emitPackage(b.distributed, "eq"));
  EXPECT_EQ(fsm::toKiss2(a.centSync), fsm::toKiss2(b.centSync));
  ASSERT_EQ(a.centFsm.has_value(), b.centFsm.has_value());
  if (a.centFsm) EXPECT_EQ(fsm::toKiss2(*a.centFsm), fsm::toKiss2(*b.centFsm));
  EXPECT_EQ(a.signalStats.removedOutputs, b.signalStats.removedOutputs);
  EXPECT_EQ(a.signalStats.keptOutputs, b.signalStats.keptOutputs);
  EXPECT_EQ(verify::renderText(a.diagnostics),
            verify::renderText(b.diagnostics));
  ASSERT_EQ(a.distArea.has_value(), b.distArea.has_value());
  if (a.distArea) {
    ASSERT_EQ(a.distArea->perController.size(),
              b.distArea->perController.size());
    for (std::size_t i = 0; i < a.distArea->perController.size(); ++i) {
      expectSameArea(a.distArea->perController[i],
                     b.distArea->perController[i]);
    }
    expectSameArea(a.distArea->total, b.distArea->total);
    EXPECT_EQ(a.distArea->completionLatches, b.distArea->completionLatches);
  }
  ASSERT_EQ(a.centSyncArea.has_value(), b.centSyncArea.has_value());
  if (a.centSyncArea) expectSameArea(*a.centSyncArea, *b.centSyncArea);
  ASSERT_EQ(a.centFsmArea.has_value(), b.centFsmArea.has_value());
  if (a.centFsmArea) expectSameArea(*a.centFsmArea, *b.centFsmArea);
  // Belt and braces: the public JSON report agrees too.
  EXPECT_EQ(toJson(a), toJson(b));
}

TEST(Pipeline, BitIdenticalToSeedPathForPaperSuite) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (sched::BindingStrategy strategy :
         {sched::BindingStrategy::LeftEdge,
          sched::BindingStrategy::CliqueCover}) {
      FlowConfig cfg;
      cfg.allocation = b.allocation;
      cfg.strategy = strategy;
      const FlowResult seed = seedFlow(b.graph, cfg);
      const FlowResult piped = runFlow(b.graph, cfg);
      SCOPED_TRACE(b.name);
      expectSameFlowResult(seed, piped);
    }
  }
}

TEST(Pipeline, BitIdenticalAcrossToggles) {
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark* diff = nullptr;
  for (const auto& b : suite) {
    if (b.name == "Diff.") diff = &b;
  }
  ASSERT_NE(diff, nullptr);
  for (bool verifyOn : {true, false}) {
    for (bool signalOpt : {true, false}) {
      FlowConfig cfg;
      cfg.allocation = diff->allocation;
      cfg.verify = verifyOn;
      cfg.optimizeSignals = signalOpt;
      cfg.buildCentFsm = true;  // exercise the product machine + its area row
      SCOPED_TRACE(::testing::Message()
                   << "verify=" << verifyOn << " signalOpt=" << signalOpt);
      expectSameFlowResult(seedFlow(diff->graph, cfg),
                           runFlow(diff->graph, cfg));
    }
  }
}

TEST(Pipeline, CacheHitDeterminismAcrossThreadCounts) {
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.front();
  FlowConfig cfg;
  cfg.allocation = b.allocation;
  cfg.synthesizeArea = false;

  std::string referenceJson;
  for (int threads : {1, 2, 8}) {
    common::setGlobalThreadCount(threads);
    auto cache = std::make_shared<ArtifactCache>();
    FlowPipeline first(b.graph, cfg, cache);
    const FlowResult r1 = first.run();
    const CacheStats afterFirst = cache->stats();
    EXPECT_EQ(afterFirst.hits, 0u);
    EXPECT_GT(afterFirst.misses, 0u);

    FlowPipeline second(b.graph, cfg, cache);
    const FlowResult r2 = second.run();
    const CacheStats afterSecond = cache->stats();
    // The re-run is served entirely from the cache...
    EXPECT_EQ(afterSecond.misses, afterFirst.misses);
    EXPECT_EQ(afterSecond.hits, afterFirst.misses);
    // ...and produces the same bits.
    expectSameFlowResult(r1, r2);

    // Every thread count yields the same report, byte for byte.
    if (referenceJson.empty()) {
      referenceJson = toJson(r1);
    } else {
      EXPECT_EQ(toJson(r1), referenceJson) << "threads=" << threads;
    }
  }
  common::setGlobalThreadCount(common::configuredThreadCount());
}

TEST(Pipeline, LazyEvaluationRunsOnlyTheDemandClosure) {
  const auto suiteCopy = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suiteCopy.front();
  FlowConfig cfg;
  cfg.allocation = b.allocation;

  {
    // Requesting the schedule alone must run exactly one pass.
    auto cache = std::make_shared<ArtifactCache>();
    FlowPipeline p(b.graph, cfg, cache);
    p.require({Artifact::Schedule});
    EXPECT_TRUE(p.has(Artifact::Schedule));
    EXPECT_FALSE(p.has(Artifact::Latency));
    EXPECT_FALSE(p.has(Artifact::Distributed));
    std::set<std::string> ran;
    for (const auto& [pass, runs] : cache->stats().runsPerPass) {
      if (runs > 0) ran.insert(pass);
    }
    EXPECT_EQ(ran, (std::set<std::string>{"schedule"}));
  }
  {
    // A lint-style demand (diagnostics only) must not touch latency
    // statistics, the product machine, the area model or the RTL emitter.
    auto cache = std::make_shared<ArtifactCache>();
    FlowPipeline p(b.graph, cfg, cache);
    p.require({Artifact::Diagnostics});
    std::set<std::string> ran;
    for (const auto& [pass, runs] : cache->stats().runsPerPass) {
      if (runs > 0) ran.insert(pass);
    }
    EXPECT_EQ(ran, (std::set<std::string>{"cent-sync", "distributed",
                                          "schedule", "signal-opt",
                                          "verify"}));
    EXPECT_FALSE(p.has(Artifact::Latency));
    EXPECT_FALSE(p.has(Artifact::DistArea));
    EXPECT_FALSE(p.has(Artifact::Rtl));
  }
}

TEST(Pipeline, VerifyRunsOncePerSchedulePairAcrossPSweep) {
  const auto suiteCopy = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suiteCopy.front();
  auto cache = std::make_shared<ArtifactCache>();
  for (double p : {0.9, 0.7, 0.5, 0.3}) {
    FlowConfig cfg;
    cfg.allocation = b.allocation;
    cfg.ps = {p};
    cfg.synthesizeArea = false;
    FlowPipeline pipeline(b.graph, cfg, cache);
    pipeline.run();
  }
  const CacheStats stats = cache->stats();
  // The (schedule, controllers) pair is shared by all four P points, so
  // verification (and everything upstream of latency) executed exactly once.
  EXPECT_EQ(stats.runsPerPass.at("verify"), 1u);
  EXPECT_EQ(stats.hitsPerPass.at("verify"), 3u);
  EXPECT_EQ(stats.runsPerPass.at("schedule"), 1u);
  EXPECT_EQ(stats.runsPerPass.at("latency"), 4u);
  EXPECT_EQ(stats.hitsPerPass.count("latency"), 0u);
}

TEST(Pipeline, BoundedCacheEvictsLeastRecentlyUsedFirst) {
  const auto suiteCopy = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suiteCopy.front();
  // Three distinct schedule artifacts (the allocation is part of the
  // schedule key) in a two-entry cache.
  auto makeConfig = [&](int extraMults) {
    FlowConfig cfg;
    cfg.allocation = b.allocation;
    cfg.allocation[dfg::ResourceClass::Multiplier] += extraMults;
    return cfg;
  };
  auto scheduleOnly = [&](std::shared_ptr<ArtifactCache> cache,
                          const FlowConfig& cfg) {
    FlowPipeline p(b.graph, cfg, std::move(cache));
    p.require({Artifact::Schedule});
  };
  const FlowConfig a = makeConfig(0), bCfg = makeConfig(1), c = makeConfig(2);

  auto cache = std::make_shared<ArtifactCache>(/*maxEntries=*/2);
  scheduleOnly(cache, a);     // miss: cache = {A}
  scheduleOnly(cache, bCfg);  // miss: cache = {A, B}, B most recent
  scheduleOnly(cache, a);     // hit refreshes A, so B is now the LRU entry
  scheduleOnly(cache, c);     // miss: evicts B (not A), cache = {A, C}

  CacheStats stats = cache->stats();
  EXPECT_EQ(stats.runsPerPass.at("schedule"), 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);

  scheduleOnly(cache, a);     // still cached -- LRU kept the refreshed entry
  scheduleOnly(cache, c);     // still cached
  scheduleOnly(cache, bCfg);  // evicted above, so this recomputes

  stats = cache->stats();
  EXPECT_EQ(stats.runsPerPass.at("schedule"), 4u);
  EXPECT_EQ(stats.hitsPerPass.at("schedule"), 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(Pipeline, ArtifactKeysTrackOnlyDeclaredConfigFields) {
  const auto suiteCopy = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suiteCopy.front();
  FlowConfig base;
  base.allocation = b.allocation;
  FlowPipeline p0(b.graph, base);

  // The encoding style feeds the area passes only.
  FlowConfig enc = base;
  enc.encoding = synth::EncodingStyle::OneHot;
  FlowPipeline p1(b.graph, enc);
  EXPECT_EQ(p0.artifactKey(Artifact::Schedule),
            p1.artifactKey(Artifact::Schedule));
  EXPECT_EQ(p0.artifactKey(Artifact::Latency),
            p1.artifactKey(Artifact::Latency));
  EXPECT_NE(p0.artifactKey(Artifact::DistArea),
            p1.artifactKey(Artifact::DistArea));

  // The P list feeds latency only.
  FlowConfig ps = base;
  ps.ps = {0.25};
  FlowPipeline p2(b.graph, ps);
  EXPECT_EQ(p0.artifactKey(Artifact::Schedule),
            p2.artifactKey(Artifact::Schedule));
  EXPECT_EQ(p0.artifactKey(Artifact::Diagnostics),
            p2.artifactKey(Artifact::Diagnostics));
  EXPECT_NE(p0.artifactKey(Artifact::Latency),
            p2.artifactKey(Artifact::Latency));

  // The allocation invalidates everything downstream of the schedule.
  FlowConfig alloc = base;
  alloc.allocation[dfg::ResourceClass::Multiplier] += 1;
  FlowPipeline p3(b.graph, alloc);
  EXPECT_NE(p0.artifactKey(Artifact::Schedule),
            p3.artifactKey(Artifact::Schedule));
  EXPECT_NE(p0.artifactKey(Artifact::Latency),
            p3.artifactKey(Artifact::Latency));

  // A different graph invalidates everything.
  const dfg::NamedBenchmark& other = suiteCopy.back();
  FlowConfig otherCfg;
  otherCfg.allocation = other.allocation;
  FlowPipeline p4(other.graph, otherCfg);
  EXPECT_NE(p0.artifactKey(Artifact::Schedule),
            p4.artifactKey(Artifact::Schedule));
}

void expectConfigError(const FlowConfig& cfg, const std::string& needle) {
  const auto suiteCopy = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suiteCopy.front();
  try {
    validateFlowConfig(cfg);
    FAIL() << "expected validation to reject: " << needle;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
  // Every entry point shares the validator.
  EXPECT_THROW(runFlow(b.graph, cfg), Error);
}

TEST(Pipeline, ValidatesFlowConfigUpFront) {
  const auto suiteCopy = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suiteCopy.front();
  FlowConfig cfg;
  cfg.allocation = b.allocation;

  FlowConfig emptyPs = cfg;
  emptyPs.ps.clear();
  expectConfigError(emptyPs, "FlowConfig.ps");

  FlowConfig zeroP = cfg;
  zeroP.ps = {0.9, 0.0};
  expectConfigError(zeroP, "outside (0, 1]");

  FlowConfig bigP = cfg;
  bigP.ps = {1.5};
  expectConfigError(bigP, "outside (0, 1]");

  FlowConfig negP = cfg;
  negP.ps = {-0.1};
  expectConfigError(negP, "outside (0, 1]");

  FlowConfig samples = cfg;
  samples.mcSamples = 0;
  expectConfigError(samples, "mcSamples");

  FlowConfig zeroUnits = cfg;
  zeroUnits.allocation[dfg::ResourceClass::Adder] = 0;
  expectConfigError(zeroUnits, "at least one unit");

  FlowConfig states = cfg;
  states.verifyMaxStates = 0;
  expectConfigError(states, "verifyMaxStates");

  // P = 1.0 is the inclusive upper edge and must stay legal.
  FlowConfig edge = cfg;
  edge.ps = {1.0};
  EXPECT_NO_THROW(validateFlowConfig(edge));
}

TEST(Pipeline, TraceExportIsChromeCompatible) {
  const auto suiteCopy = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suiteCopy.front();
  FlowConfig cfg;
  cfg.allocation = b.allocation;
  cfg.synthesizeArea = false;
  auto cache = std::make_shared<ArtifactCache>();
  FlowPipeline pipeline(b.graph, cfg, cache);
  pipeline.run();
  ASSERT_FALSE(pipeline.traceEvents().empty());

  FlowPipeline rerun(b.graph, cfg, cache);
  rerun.run();
  const bool anyHit =
      std::any_of(rerun.traceEvents().begin(), rerun.traceEvents().end(),
                  [](const PassTraceEvent& e) { return e.cacheHit; });
  EXPECT_TRUE(anyHit);

  const std::string json = traceToChromeJson(
      {{"first", pipeline.traceEvents()}, {"rerun", rerun.traceEvents()}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"schedule\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\":\"miss\""), std::string::npos);
  // Two runs, two trace processes.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
}

TEST(Pipeline, ChromeTraceEscapesRunNames) {
  // The CLI names a run after the design file's stem, which may hold any
  // character a file name can.
  const std::string json = traceToChromeJson({{"a\"b\\c", {}}});
  EXPECT_EQ(json,
            "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\","
            "\"pid\":1,\"tid\":0,\"args\":{\"name\":\"a\\\"b\\\\c\"}}]}\n");
}

TEST(Pipeline, RtlArtifactMatchesEmitVerilog) {
  const auto suiteCopy = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suiteCopy.front();
  FlowConfig cfg;
  cfg.allocation = b.allocation;
  FlowPipeline pipeline(b.graph, cfg);
  const FlowResult r = pipeline.run();
  EXPECT_EQ(pipeline.get<std::string>(Artifact::Rtl), emitVerilog(r));
}

TEST(Pipeline, AutoModeRetiresMdl007WithSymbolicVerdicts) {
  const auto suiteCopy = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suiteCopy.front();
  FlowConfig cfg;
  cfg.allocation = b.allocation;
  cfg.synthesizeArea = false;
  cfg.verifyMaxStates = 1;  // starve the explicit engine into MDL007

  // Explicit mode keeps the capitulation warning.
  FlowPipeline ex(b.graph, cfg);
  EXPECT_TRUE(ex.run().diagnostics.has("MDL007"));

  // Auto mode demands the symbolic pass and replaces MDL007 with verdicts.
  cfg.modelCheck = ModelCheckMode::Auto;
  FlowPipeline au(b.graph, cfg);
  const FlowResult auResult = au.run();
  EXPECT_FALSE(auResult.diagnostics.has("MDL007"));
  EXPECT_TRUE(auResult.diagnostics.has("MDL008"));
  EXPECT_FALSE(auResult.diagnostics.hasErrors());
  EXPECT_TRUE(au.has(Artifact::SymbolicCheck));

  // With a sufficient bound auto never pays for the symbolic pass.
  cfg.verifyMaxStates = 200000;
  FlowPipeline cheap(b.graph, cfg);
  const FlowResult cheapResult = cheap.run();
  EXPECT_FALSE(cheapResult.diagnostics.has("MDL007"));
  EXPECT_FALSE(cheapResult.diagnostics.has("MDL008"));
  EXPECT_FALSE(cheap.has(Artifact::SymbolicCheck));

  // Symbolic mode skips the explicit exploration outright: no MDL007 at any
  // bound, and every property closes by induction on a clean benchmark.
  cfg.modelCheck = ModelCheckMode::Symbolic;
  cfg.verifyMaxStates = 1;
  FlowPipeline sym(b.graph, cfg);
  const FlowResult symResult = sym.run();
  EXPECT_FALSE(symResult.diagnostics.has("MDL007"));
  EXPECT_TRUE(symResult.diagnostics.has("MDL008"));
  EXPECT_FALSE(symResult.diagnostics.hasErrors());
  const auto& art =
      sym.get<verify::SymbolicArtifact>(Artifact::SymbolicCheck);
  ASSERT_EQ(art.stats.properties.size(), 5u);
  for (const verify::SymbolicProperty& p : art.stats.properties) {
    EXPECT_EQ(p.verdict, verify::PropertyVerdict::Proved) << p.rule;
    EXPECT_GE(p.inductionK, 1) << p.rule;
  }
}

}  // namespace
}  // namespace tauhls::core
