// Algorithm 1 for multi-level VCAUs: fsm::buildDistributed with each
// overridden class's level count, after validating the units' cycles-per-level
// contract against the clock.  Per bound operation O_i of an L-level unit the
// controller walks S_i^0 .. S_i^{L-1} ("S<i>", "S<i>p", "S<i>pp", ...); with
// L = 2 this is exactly the paper's construction.
#pragma once

#include <map>

#include "fsm/distributed.hpp"
#include "vcau/unit.hpp"

namespace tauhls::vcau {

/// Per-class override of the scheduled DFG's unit types.  Classes absent
/// from the map keep their (validated two-level / fixed) tau::UnitType.
using MultiLevelLibrary = std::map<dfg::ResourceClass, MultiLevelUnitType>;

/// Build the distributed control unit with multi-level controllers for the
/// overridden classes.  Level-cycle contracts are validated against
/// s.clockNs.  Controllers of non-overridden classes are the standard
/// Algorithm 1 machines.
fsm::DistributedControlUnit buildMultiLevelDistributed(
    const sched::ScheduledDfg& s, const MultiLevelLibrary& overrides);

/// Number of delay levels of the unit executing `unitId` (1 for fixed units,
/// 2 for standard TAUs, overrides.numLevels() when overridden).
int levelsOfUnit(const sched::ScheduledDfg& s, const MultiLevelLibrary& overrides,
                 int unitId);

}  // namespace tauhls::vcau
