#include "vcau/makespan.hpp"

#include <algorithm>
#include <random>

#include "common/error.hpp"
#include "sim/makespan.hpp"

namespace tauhls::vcau {

using dfg::NodeId;

int opLevelCycles(const sched::ScheduledDfg& s,
                  const MultiLevelLibrary& overrides, NodeId v, int level) {
  const int levels = levelsOfUnit(s, overrides, s.binding.unitOf(v));
  TAUHLS_CHECK(level >= 0 && level < levels,
               "level out of range for op " + s.graph.node(v).name);
  // Contract: level k takes k+1 cycles (validated at controller build).
  return level + 1;
}

LevelClasses allFastest(const sched::ScheduledDfg& s,
                        const MultiLevelLibrary& overrides) {
  (void)overrides;
  LevelClasses c;
  c.levelOf.assign(s.graph.numNodes(), 0);
  return c;
}

LevelClasses allSlowest(const sched::ScheduledDfg& s,
                        const MultiLevelLibrary& overrides) {
  LevelClasses c;
  c.levelOf.assign(s.graph.numNodes(), 0);
  for (NodeId v : s.graph.opIds()) {
    c.levelOf[v] = levelsOfUnit(s, overrides, s.binding.unitOf(v)) - 1;
  }
  return c;
}

LevelClasses randomLevels(const sched::ScheduledDfg& s,
                          const MultiLevelLibrary& overrides,
                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  LevelClasses c;
  c.levelOf.assign(s.graph.numNodes(), 0);
  for (NodeId v : s.graph.opIds()) {
    const int unitId = s.binding.unitOf(v);
    const dfg::ResourceClass cls = s.binding.unit(unitId).cls;
    auto it = overrides.find(cls);
    if (it != overrides.end()) {
      std::discrete_distribution<int> d(it->second.levelProbabilities.begin(),
                                        it->second.levelProbabilities.end());
      c.levelOf[v] = d(rng);
    } else if (s.unitIsTelescopic(unitId)) {
      std::bernoulli_distribution slow(
          1.0 - s.library.typeFor(cls).sdProbability);
      c.levelOf[v] = slow(rng) ? 1 : 0;
    }
  }
  return c;
}

int distributedMakespanCycles(const sched::ScheduledDfg& s,
                              const MultiLevelLibrary& overrides,
                              const LevelClasses& classes) {
  TAUHLS_CHECK(classes.levelOf.size() == s.graph.numNodes(),
               "level-class vector size mismatch");
  std::vector<int> opCycles(s.graph.numNodes(), 0);
  for (NodeId v : s.graph.opIds()) {
    opCycles[v] = opLevelCycles(s, overrides, v, classes.level(v));
  }
  const std::vector<int> finish = sim::distributedFinishCycles(s, opCycles);
  int last = -1;
  for (NodeId v : s.graph.opIds()) last = std::max(last, finish[v]);
  return last + 1;
}

int syncMakespanCycles(const sched::ScheduledDfg& s,
                       const MultiLevelLibrary& overrides,
                       const LevelClasses& classes) {
  TAUHLS_CHECK(classes.levelOf.size() == s.graph.numNodes(),
               "level-class vector size mismatch");
  int cycles = 0;
  for (const sched::TaubmStep& step : s.taubm.steps) {
    int duration = 1;
    for (NodeId v : step.ops) {
      duration = std::max(
          duration, opLevelCycles(s, overrides, v, classes.level(v)));
    }
    cycles += duration;
  }
  return cycles;
}

}  // namespace tauhls::vcau
