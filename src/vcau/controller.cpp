#include "vcau/controller.hpp"

#include "common/error.hpp"

namespace tauhls::vcau {

int levelsOfUnit(const sched::ScheduledDfg& s,
                 const MultiLevelLibrary& overrides, int unitId) {
  auto it = overrides.find(s.binding.unit(unitId).cls);
  if (it != overrides.end()) return it->second.numLevels();
  return fsm::levelsOfUnit(s, {}, unitId);
}

fsm::DistributedControlUnit buildMultiLevelDistributed(
    const sched::ScheduledDfg& s, const MultiLevelLibrary& overrides) {
  fsm::LevelOverrides levels;
  for (const auto& [cls, type] : overrides) {
    TAUHLS_CHECK(type.cls == cls, "override keyed under the wrong class");
    validateMultiLevelUnit(type, s.clockNs);
    levels[cls] = type.numLevels();
  }
  return fsm::buildDistributed(s, levels);
}

}  // namespace tauhls::vcau
