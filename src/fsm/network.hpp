// Explicit semantics of the distributed controller network (DESIGN.md §5.1),
// the one copy behind the product (fsm::buildProduct), the interpreters
// (sim::runDistributed, vcau::runDistributed, datapath::execute) and the
// product trace comparison.  One clock cycle:
//   1. pulse fixpoint -- every controller steps under the external C_* set,
//      the pulses emitted so far and its own latches; the completion pulses
//      it emits (the keys of dcu.producerOf) feed the next iterate until the
//      set stops changing;
//   2. fire -- each controller takes its transition under the final set;
//   3. latch -- each controller's latches capture the pulses it consumes and
//      hold them until the restart strobe, so a later op of the same unit
//      that depends on the same producer still sees the completion.
// A guard reads a consumed signal as latch OR live pulse.
#pragma once

#include <compare>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "fsm/distributed.hpp"

namespace tauhls::fsm {

/// Emission iterates the pulse fixpoint may take (generated controllers need
/// two; the third is defensive).  The AIG lowering of the network
/// (verify::lowering::networkStep) unrolls this many rounds, and the symbolic
/// model check flags non-convergence where the last two rounds differ.
inline constexpr int kPulseFixpointIterations = 3;

/// One network configuration: a state per controller plus the completion
/// latches that controller holds.
struct NetworkConfig {
  std::vector<int> states;
  std::vector<std::set<std::string>> latches;

  auto operator<=>(const NetworkConfig&) const = default;
};

/// Every controller in its initial state, no latch set.
NetworkConfig initialConfig(const DistributedControlUnit& dcu);

struct NetworkStep {
  NetworkConfig next;
  std::unordered_set<std::string> pulses;  ///< completion pulses this cycle
  /// Per controller: the outputs of the transition it fired.
  std::vector<std::vector<std::string>> outputs;
};

/// Advance the network one cycle from `config` with the external completion
/// signals `external` asserted.  Throws when a controller has zero or several
/// enabled transitions or the pulse fixpoint does not converge.
NetworkStep stepNetwork(const DistributedControlUnit& dcu,
                        const NetworkConfig& config,
                        const std::unordered_set<std::string>& external);

}  // namespace tauhls::fsm
