#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dfg/benchmarks.hpp"
#include "explore/pareto.hpp"
#include "testutil.hpp"

namespace tauhls::explore {
namespace {

using dfg::ResourceClass;

TEST(Explore, SweepsBoundedGrid) {
  // fir(5): 5 muls (chain cover 5, capped at 3 by options) and 4 chained
  // adds (chain cover 1) -> 3 x 1 = 3 points.
  ExploreOptions opt;
  opt.maxUnitsPerClass = 3;
  auto points = explore(dfg::fir(5), opt);
  EXPECT_EQ(points.size(), 3u);
  for (const DesignPoint& p : points) {
    EXPECT_GE(p.allocation.at(ResourceClass::Multiplier), 1);
    EXPECT_LE(p.allocation.at(ResourceClass::Multiplier), 3);
    EXPECT_EQ(p.allocation.at(ResourceClass::Adder), 1);  // chain: cap 1
    EXPECT_GT(p.averageLatencyNs, 0.0);
    EXPECT_GT(p.controllerArea, 0);
    EXPECT_GT(p.datapathRegisters, 0);
  }
}

TEST(Explore, MoreUnitsNeverSlower) {
  ExploreOptions opt;
  opt.maxUnitsPerClass = 3;
  auto points = explore(dfg::fir(5), opt);
  std::map<int, double> latencyByMults;
  for (const DesignPoint& p : points) {
    latencyByMults[p.allocation.at(ResourceClass::Multiplier)] =
        p.averageLatencyNs;
  }
  EXPECT_LE(latencyByMults.at(2), latencyByMults.at(1));
  EXPECT_LE(latencyByMults.at(3), latencyByMults.at(2));
}

TEST(Explore, ParetoFrontIsNonDominated) {
  ExploreOptions opt;
  opt.maxUnitsPerClass = 3;
  auto points = explore(dfg::diffeq(), opt);
  auto front = paretoFront(points, kUnitWeightArea);
  EXPECT_FALSE(front.empty());
  EXPECT_LE(front.size(), points.size());
  for (const DesignPoint& f : front) {
    for (const DesignPoint& other : points) {
      const bool dominates =
          other.averageLatencyNs < f.averageLatencyNs - 1e-9 &&
          other.cost(kUnitWeightArea) < f.cost(kUnitWeightArea);
      EXPECT_FALSE(dominates);
    }
  }
  // Flags match membership.
  int flagged = 0;
  for (const DesignPoint& p : points) flagged += p.paretoOptimal ? 1 : 0;
  EXPECT_EQ(flagged, static_cast<int>(front.size()));
}

TEST(Explore, CheapestAndFastestAlwaysOnFront) {
  // The minimum-cost point and the minimum-latency point can never be
  // dominated (with ties broken by the dominance definition).
  ExploreOptions opt;
  opt.maxUnitsPerClass = 2;
  auto points = explore(dfg::diffeq(), opt);
  auto front = paretoFront(points, kUnitWeightArea);
  double bestLatency = 1e18;
  int bestCost = 1 << 30;
  for (const DesignPoint& p : points) {
    bestLatency = std::min(bestLatency, p.averageLatencyNs);
    bestCost = std::min(bestCost, p.cost(kUnitWeightArea));
  }
  bool frontHasBestLatency = false;
  bool frontHasBestCost = false;
  for (const DesignPoint& f : front) {
    frontHasBestLatency |= f.averageLatencyNs <= bestLatency + 1e-9;
    frontHasBestCost |= f.cost(kUnitWeightArea) <= bestCost;
  }
  EXPECT_TRUE(frontHasBestLatency);
  EXPECT_TRUE(frontHasBestCost);
}

TEST(Explore, SharedCacheMakesRepeatSweepsFreeAndIdentical) {
  ExploreOptions opt;
  opt.maxUnitsPerClass = 2;
  opt.cache = std::make_shared<core::ArtifactCache>();
  const dfg::Dfg g = dfg::fir(3);

  const auto first = explore(g, opt);
  const core::CacheStats afterFirst = opt.cache->stats();
  EXPECT_EQ(afterFirst.hits, 0u);

  const auto second = explore(g, opt);
  const core::CacheStats afterSecond = opt.cache->stats();
  // The repeat sweep re-ran nothing...
  EXPECT_EQ(afterSecond.misses, afterFirst.misses);
  EXPECT_EQ(afterSecond.hits, afterFirst.misses);
  // ...and reproduced every point exactly.
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].allocation, second[i].allocation);
    EXPECT_EQ(first[i].averageLatencyNs, second[i].averageLatencyNs);
    EXPECT_EQ(first[i].controllerArea, second[i].controllerArea);
    EXPECT_EQ(first[i].datapathRegisters, second[i].datapathRegisters);
    EXPECT_EQ(first[i].paretoOptimal, second[i].paretoOptimal);
  }
  // Each distinct allocation was scheduled and verified exactly once.
  EXPECT_EQ(afterSecond.runsPerPass.at("schedule"), first.size());
  EXPECT_EQ(afterSecond.runsPerPass.at("verify"), first.size());
}

TEST(Explore, RejectsDegenerateInputs) {
  dfg::Dfg empty("empty");
  empty.addInput("a");
  EXPECT_THROW(explore(empty), Error);
  ExploreOptions bad;
  bad.maxUnitsPerClass = 0;
  EXPECT_THROW(explore(dfg::fir(3), bad), Error);
}

}  // namespace
}  // namespace tauhls::explore
