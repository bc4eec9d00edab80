// FSM-level interpretation: execute the *generated controllers themselves*
// cycle by cycle, with completion-signal exchange and sticky completion
// latches, against a datapath model that raises each telescopic unit's C
// exactly when the op it is executing has SD-class operands.
//
// This is the ground truth the abstract makespan engines are validated
// against (integration property: FSM latency == abstract makespan for every
// operand-class assignment).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/network.hpp"
#include "fsm/signal.hpp"
#include "sim/classes.hpp"

namespace tauhls::sim {

struct SimTrace {
  /// Outputs asserted in each simulated cycle (sorted within a cycle).
  std::vector<std::vector<std::string>> outputsPerCycle;
  /// External completion inputs (C_*) asserted in each cycle (sorted);
  /// filled by runDistributed -- the stimulus for RTL testbench generation.
  std::vector<std::vector<std::string>> externalsPerCycle;
  /// Cycles until every operation's RE fired once (one DFG iteration).
  int latencyCycles = 0;

  /// True when `signal` was asserted in `cycle`.
  bool asserted(int cycle, const std::string& signal) const;
  /// First cycle asserting `signal`; -1 when never.
  int firstCycle(const std::string& signal) const;
};

/// Datapath model: whether telescopic controller `ctl`'s unit raises its C
/// during a cycle the controller spends in `state`.
using CompletionModel = std::function<bool(const fsm::UnitController& ctl,
                                           const fsm::StateName& state)>;

/// Run the distributed control unit for one DFG iteration against
/// `raisesCompletion`; `onStep`, when set, sees every cycle's network step.
SimTrace runDistributed(
    const fsm::DistributedControlUnit& dcu, const sched::ScheduledDfg& s,
    const CompletionModel& raisesCompletion, int maxCycles = 100000,
    const std::function<void(const fsm::NetworkStep&)>& onStep = {});

/// Run the distributed control unit for one DFG iteration; a unit raises C
/// in the first execution cycle of an SD-class op.
SimTrace runDistributed(const fsm::DistributedControlUnit& dcu,
                        const sched::ScheduledDfg& s,
                        const OperandClasses& classes, int maxCycles = 100000);

/// Run the CENT-SYNC FSM for one DFG iteration.
SimTrace runCentSync(const fsm::Fsm& centSync, const sched::ScheduledDfg& s,
                     const OperandClasses& classes, int maxCycles = 100000);

/// Drive two machines with the same random input traces and compare their
/// output sequences cycle by cycle; returns the first differing cycle or -1
/// when equivalent on all tried traces.
int compareOnRandomTraces(const fsm::Fsm& a, const fsm::Fsm& b,
                          std::uint64_t seed, int numTraces, int traceLength);

/// Drive the distributed controllers (with latch semantics) and the product
/// machine with the same random external C traces; compare the *visible*
/// (non-CCO) outputs each cycle.  Returns the first differing cycle or -1.
/// This is the behavioural-equivalence check CENT-FSM == DIST (paper §5).
int compareProductToDistributed(const fsm::DistributedControlUnit& dcu,
                                const fsm::Fsm& product, std::uint64_t seed,
                                int numTraces, int traceLength);

}  // namespace tauhls::sim
