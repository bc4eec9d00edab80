// Algorithm 1 (paper §4.2): derive one synchronous controller per arithmetic
// unit and aggregate them into a distributed global control unit.
//
// Controller shape for a unit with L delay levels and bound ops O_0..O_n:
//   states  S_i^0 .. S_i^{L-1} (the op's execution chain, named "S<i>",
//           "S<i>p", "S<i>pp", ...), R_i (ready-wait, only when O_i has
//           predecessors on other units)
//   guards  over the unit's completion signal C_T and the predecessor
//           completion signals C_PO (= the producers' CCO_* wires)
//   outputs OF_i while executing; RE_i and CCO_i on the completing cycle.
// L is 1 for fixed units (no C_T, paper §4.2) and 2 for telescopic units
// (S_i, S_i'); a LevelOverrides entry sets it to any L >= 1 -- the paper's
// §6 multi-level VCAUs, "in the same manner".  In S_i^k with k < L-1 a low
// C_T advances to S_i^{k+1}; a high C_T (or any input in the last level)
// completes the op.
//
// Completion signals are single-cycle pulses; consumers latch them (sticky
// completion latches, DESIGN.md §5.1).  The latches live *outside* the FSMs:
// the FSM guard reads the OR of the latch and the live pulse.  That network
// semantics is implemented once, in fsm/network.hpp; the RTL back-end emits
// one latch per consumed wire.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "fsm/machine.hpp"
#include "sched/scheduled_dfg.hpp"

namespace tauhls::fsm {

/// One arithmetic-unit controller plus its wiring metadata.
struct UnitController {
  int unitId = 0;                       ///< binding unit id
  bool telescopic = false;
  Fsm fsm;                              ///< the Algorithm-1 machine
  std::vector<dfg::NodeId> ops;         ///< bound execution sequence
  /// Completion-latch inputs: CCO_* signals read by this controller's guards.
  std::vector<std::string> latchedInputs;

  UnitController() : fsm("unnamed") {}
};

/// The distributed global control unit (paper Fig. 7).
struct DistributedControlUnit {
  std::vector<UnitController> controllers;
  /// External inputs: the telescopic units' completion signals C_<unit>.
  std::vector<std::string> externalInputs;
  /// Controller index producing each inter-controller completion signal.
  std::map<std::string, int> producerOf;
  /// Controller indices consuming each inter-controller completion signal.
  std::map<std::string, std::set<int>> consumersOf;

  /// Total states / flip-flops across controllers (Table 1 reporting).
  std::size_t totalStates() const;
  int totalFlipFlops() const;
  /// Number of completion latches (one per (consumer, signal) pair).
  int completionLatchCount() const;
};

/// Delay-level count per resource class, replacing the default (1 fixed,
/// 2 telescopic) for every unit of that class.
using LevelOverrides = std::map<dfg::ResourceClass, int>;

/// Delay levels of unit `unitId` under `overrides`.
int levelsOfUnit(const sched::ScheduledDfg& s, const LevelOverrides& overrides,
                 int unitId);

/// Run Algorithm 1 on every unit of the scheduled DFG.  All controllers are
/// validated (deterministic + complete) before returning.
DistributedControlUnit buildDistributed(const sched::ScheduledDfg& s,
                                        const LevelOverrides& overrides = {});

}  // namespace tauhls::fsm
