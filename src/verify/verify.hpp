// Orchestrator: run every static pass over a completed flow's artifacts and
// collect one Report.
//
// Pass order mirrors the flow itself -- graph, schedule/binding, registers,
// per-machine FSM checks, the distributed-vs-centralized model check, then
// the structural netlist/RTL layer.  Each pass appends diagnostics
// independently; an early-layer error does not suppress later passes (the
// caller sees the whole picture at once).
#pragma once

#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "sched/scheduled_dfg.hpp"
#include "verify/diagnostic.hpp"
#include "verify/model_check.hpp"

namespace tauhls::verify {

struct VerifyOptions {
  /// The *requested* (pre-normalization) allocation; enables SCH005/SCH007.
  const sched::Allocation* requestedAllocation = nullptr;
  /// The CENT-SYNC baseline, when the flow built one; enables the
  /// cross-style model check (MDL006) and the baseline's own FSM/phi checks.
  const fsm::Fsm* centSync = nullptr;
  /// Run the bounded product model check (MDL001-MDL007).
  bool modelCheck = true;
  /// Bound on product configurations before degrading to MDL007.
  std::size_t modelCheckMaxStates = 200000;
};

/// Run all passes over a scheduled design and its distributed controllers.
/// The structural layer always runs: the controller netlists (lint + the
/// functional cross-controller loop check) and the parsed RTL package (NET*).
Report verifyFlow(const sched::ScheduledDfg& s,
                  const fsm::DistributedControlUnit& dcu,
                  const VerifyOptions& options = {});

}  // namespace tauhls::verify
