#include "vcau/interp.hpp"

#include "common/error.hpp"

namespace tauhls::vcau {

sim::SimTrace runDistributed(const fsm::DistributedControlUnit& dcu,
                             const sched::ScheduledDfg& s,
                             const MultiLevelLibrary& overrides,
                             const LevelClasses& classes, int maxCycles) {
  TAUHLS_CHECK(classes.levelOf.size() == s.graph.numNodes(),
               "level-class vector size mismatch");
  // Reject class assignments outside the units' level ranges.
  for (dfg::NodeId v : s.graph.opIds()) {
    opLevelCycles(s, overrides, v, classes.level(v));
  }
  // Datapath: C during the completing level's cycle.
  return sim::runDistributed(
      dcu, s,
      [&](const fsm::UnitController& ctl, const fsm::StateName& state) {
        return state.kind == fsm::StateName::Kind::Execute &&
               state.level == classes.level(ctl.ops[state.index]);
      },
      maxCycles);
}

}  // namespace tauhls::vcau
