// Controller-driven, value-accurate datapath execution.
//
// Runs the generated distributed control unit cycle by cycle (the network
// step of fsm/network.hpp) while a register-transfer datapath executes
// underneath: while a controller sits in S_i, its unit computes
// O_i's value from the producer registers; a telescopic unit raises C_<unit>
// exactly when the completion generator certifies the current operands; on
// the completing transition (RE_i) the result is latched into O_i's register.
//
// Integration properties (tests/test_datapath.cpp):
//   * every register ends up equal to the golden evaluateDfg value;
//   * the realized SD/LD classes match the completion generator's verdicts;
//   * the measured latency equals the abstract makespan under exactly those
//     realized classes.
#pragma once

#include <vector>

#include "datapath/units.hpp"
#include "fsm/distributed.hpp"
#include "sim/classes.hpp"

namespace tauhls::datapath {

struct ExecutionResult {
  std::vector<Value> values;            ///< per node, after one iteration
  sim::OperandClasses realizedClasses;  ///< SD verdicts actually observed
  int latencyCycles = 0;
};

/// Execute one DFG iteration.  `inputValues` is indexed by NodeId (Input
/// nodes only are read).  Throws if the control unit deadlocks or an op
/// fetches an operand whose producer has not completed (would indicate a
/// controller bug -- this is the datapath-level safety property).
ExecutionResult execute(const fsm::DistributedControlUnit& dcu,
                        const sched::ScheduledDfg& s,
                        const std::vector<Value>& inputValues,
                        const BitLevelLibrary& lib, int maxCycles = 100000);

}  // namespace tauhls::datapath
