// Static timing diagnostics (TIM rules): per-controller timing closure
// against the system clock CC_TAU = max(SD, FD), answered by the STA engine
// (netlist/sta.hpp) instead of the naive level-count bound.
//
//   TIM001 (error)   negative slack -- the controller misses the clock
//   TIM002 (warning) slack within 10% of the clock period
//   TIM003 (info)    per-controller summary: arrival, slack, worst path
#pragma once

#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "netlist/sta.hpp"
#include "synth/encoding.hpp"
#include "verify/diagnostic.hpp"

namespace tauhls::verify {

struct TimingOptions {
  double marginNs = 2.0;  ///< register setup + completion-signal arrival
  synth::EncodingStyle style = synth::EncodingStyle::Binary;
};

/// STA over one controller's synthesized netlist against `clockNs`, under
/// netlist::DelayModel's default gate delays.
void checkControllerTiming(const fsm::Fsm& fsm, double clockNs, Report& report,
                           const TimingOptions& options = {});

/// STA over every unit controller of the distributed control unit.
Report checkTiming(const fsm::DistributedControlUnit& dcu, double clockNs,
                   const TimingOptions& options = {});

}  // namespace tauhls::verify
