#include "fsm/network.hpp"

#include "common/error.hpp"

namespace tauhls::fsm {

NetworkConfig initialConfig(const DistributedControlUnit& dcu) {
  NetworkConfig config;
  for (const UnitController& c : dcu.controllers) {
    config.states.push_back(c.fsm.initial());
  }
  config.latches.resize(dcu.controllers.size());
  return config;
}

NetworkStep stepNetwork(const DistributedControlUnit& dcu,
                        const NetworkConfig& config,
                        const std::unordered_set<std::string>& external) {
  const std::size_t n = dcu.controllers.size();
  // Pulse fixpoint.  The last iterate steps every controller under the final
  // pulse set, so its transitions are the ones that fire.
  std::vector<Fsm::StepResult> fired(n);
  std::unordered_set<std::string> pulses;
  for (int iter = 0;; ++iter) {
    TAUHLS_ASSERT(iter < kPulseFixpointIterations,
                  "completion-pulse fixpoint did not converge");
    std::unordered_set<std::string> next;
    for (std::size_t c = 0; c < n; ++c) {
      std::unordered_set<std::string> asserted = external;
      asserted.insert(pulses.begin(), pulses.end());
      asserted.insert(config.latches[c].begin(), config.latches[c].end());
      fired[c] = dcu.controllers[c].fsm.step(config.states[c], asserted);
      for (const std::string& out : fired[c].outputs) {
        if (dcu.producerOf.contains(out)) next.insert(out);
      }
    }
    if (next == pulses) break;
    pulses = std::move(next);
  }

  NetworkStep step;
  step.next.latches = config.latches;
  for (std::size_t c = 0; c < n; ++c) {
    step.next.states.push_back(fired[c].nextState);
    for (const std::string& sig : dcu.controllers[c].latchedInputs) {
      if (pulses.contains(sig)) step.next.latches[c].insert(sig);
    }
    step.outputs.push_back(std::move(fired[c].outputs));
  }
  step.pulses = std::move(pulses);
  return step;
}

}  // namespace tauhls::fsm
