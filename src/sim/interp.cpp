#include "sim/interp.hpp"

#include <algorithm>
#include <random>
#include <set>
#include <unordered_set>

#include "common/error.hpp"
#include "fsm/signal.hpp"

namespace tauhls::sim {

using dfg::NodeId;

bool SimTrace::asserted(int cycle, const std::string& signal) const {
  if (cycle < 0 || cycle >= static_cast<int>(outputsPerCycle.size())) return false;
  const auto& v = outputsPerCycle[cycle];
  return std::find(v.begin(), v.end(), signal) != v.end();
}

int SimTrace::firstCycle(const std::string& signal) const {
  for (std::size_t c = 0; c < outputsPerCycle.size(); ++c) {
    if (asserted(static_cast<int>(c), signal)) return static_cast<int>(c);
  }
  return -1;
}

SimTrace runDistributed(
    const fsm::DistributedControlUnit& dcu, const sched::ScheduledDfg& s,
    const CompletionModel& raisesCompletion, int maxCycles,
    const std::function<void(const fsm::NetworkStep&)>& onStep) {
  fsm::NetworkConfig config = fsm::initialConfig(dcu);

  std::set<std::string> pendingRe;
  for (NodeId v : s.graph.opIds()) {
    pendingRe.insert(fsm::registerEnableSignal(s.graph.node(v).name));
  }

  SimTrace trace;
  for (int cycle = 0; cycle < maxCycles && !pendingRe.empty(); ++cycle) {
    std::unordered_set<std::string> external;
    for (std::size_t c = 0; c < dcu.controllers.size(); ++c) {
      const fsm::UnitController& ctl = dcu.controllers[c];
      if (!ctl.telescopic) continue;
      const fsm::StateName p =
          fsm::parseStateName(ctl.fsm.stateName(config.states[c]));
      if (raisesCompletion(ctl, p)) {
        external.insert(
            fsm::unitCompletionSignal(s.binding.unit(ctl.unitId)));
      }
    }
    fsm::NetworkStep step = fsm::stepNetwork(dcu, config, external);
    if (onStep) onStep(step);
    config = std::move(step.next);
    std::vector<std::string> cycleOutputs;
    for (const std::vector<std::string>& fired : step.outputs) {
      for (const std::string& o : fired) {
        cycleOutputs.push_back(o);
        pendingRe.erase(o);
      }
    }
    std::sort(cycleOutputs.begin(), cycleOutputs.end());
    trace.outputsPerCycle.push_back(std::move(cycleOutputs));
    std::vector<std::string> externalsSorted(external.begin(), external.end());
    std::sort(externalsSorted.begin(), externalsSorted.end());
    trace.externalsPerCycle.push_back(std::move(externalsSorted));
  }
  TAUHLS_CHECK(pendingRe.empty(),
               "distributed simulation did not finish within the cycle bound");
  trace.latencyCycles = static_cast<int>(trace.outputsPerCycle.size());
  return trace;
}

SimTrace runDistributed(const fsm::DistributedControlUnit& dcu,
                        const sched::ScheduledDfg& s,
                        const OperandClasses& classes, int maxCycles) {
  TAUHLS_CHECK(classes.shortClass.size() == s.graph.numNodes(),
               "operand-class vector size mismatch");
  return runDistributed(
      dcu, s,
      [&](const fsm::UnitController& ctl, const fsm::StateName& state) {
        return state.isExecute(0) && classes.isShort(ctl.ops[state.index]);
      },
      maxCycles);
}

SimTrace runCentSync(const fsm::Fsm& centSync, const sched::ScheduledDfg& s,
                     const OperandClasses& classes, int maxCycles) {
  TAUHLS_CHECK(classes.shortClass.size() == s.graph.numNodes(),
               "operand-class vector size mismatch");
  std::set<std::string> pendingRe;
  for (NodeId v : s.graph.opIds()) {
    pendingRe.insert(fsm::registerEnableSignal(s.graph.node(v).name));
  }

  SimTrace trace;
  int state = centSync.initial();
  for (int cycle = 0; cycle < maxCycles && !pendingRe.empty(); ++cycle) {
    // Datapath model: in state S_k (first half of step k), the unit executing
    // a TAU op of that step raises C when the op is SD-class.
    const fsm::StateName p = fsm::parseStateName(centSync.stateName(state));
    TAUHLS_ASSERT(p.kind == fsm::StateName::Kind::Execute,
                  "unexpected state name in CENT-SYNC FSM");
    std::unordered_set<std::string> asserted;
    if (p.isExecute(0)) {
      const sched::TaubmStep& step = s.taubm.steps[p.index];
      for (NodeId v : step.tauOps) {
        if (classes.isShort(v)) {
          asserted.insert(
              fsm::unitCompletionSignal(s.binding.unit(s.binding.unitOf(v))));
        }
      }
    }
    const auto r = centSync.step(state, asserted);
    state = r.nextState;
    std::vector<std::string> outs = r.outputs;
    for (const std::string& o : outs) pendingRe.erase(o);
    std::sort(outs.begin(), outs.end());
    trace.outputsPerCycle.push_back(std::move(outs));
  }
  TAUHLS_CHECK(pendingRe.empty(),
               "CENT-SYNC simulation did not finish within the cycle bound");
  trace.latencyCycles = static_cast<int>(trace.outputsPerCycle.size());
  return trace;
}

int compareProductToDistributed(const fsm::DistributedControlUnit& dcu,
                                const fsm::Fsm& product, std::uint64_t seed,
                                int numTraces, int traceLength) {
  std::mt19937_64 rng(seed);
  for (int t = 0; t < numTraces; ++t) {
    fsm::NetworkConfig config = fsm::initialConfig(dcu);
    int productState = product.initial();

    for (int cycle = 0; cycle < traceLength; ++cycle) {
      std::unordered_set<std::string> external;
      for (const std::string& in : dcu.externalInputs) {
        if (std::uniform_int_distribution<int>(0, 1)(rng)) external.insert(in);
      }
      fsm::NetworkStep step = fsm::stepNetwork(dcu, config, external);
      config = std::move(step.next);
      std::vector<std::string> visible;
      for (const std::vector<std::string>& fired : step.outputs) {
        for (const std::string& o : fired) {
          if (!dcu.producerOf.contains(o)) visible.push_back(o);
        }
      }
      // Product side.
      auto rp = product.step(productState, external);
      productState = rp.nextState;
      std::vector<std::string> productOut = rp.outputs;
      std::sort(visible.begin(), visible.end());
      std::sort(productOut.begin(), productOut.end());
      if (visible != productOut) return cycle;
    }
  }
  return -1;
}

int compareOnRandomTraces(const fsm::Fsm& a, const fsm::Fsm& b,
                          std::uint64_t seed, int numTraces, int traceLength) {
  TAUHLS_CHECK(a.inputs() == b.inputs(),
               "machines must share an input alphabet for trace comparison");
  std::mt19937_64 rng(seed);
  for (int t = 0; t < numTraces; ++t) {
    int stateA = a.initial();
    int stateB = b.initial();
    for (int cycle = 0; cycle < traceLength; ++cycle) {
      std::unordered_set<std::string> asserted;
      for (const std::string& in : a.inputs()) {
        if (std::uniform_int_distribution<int>(0, 1)(rng)) asserted.insert(in);
      }
      auto ra = a.step(stateA, asserted);
      auto rb = b.step(stateB, asserted);
      std::vector<std::string> oa = ra.outputs;
      std::vector<std::string> ob = rb.outputs;
      std::sort(oa.begin(), oa.end());
      std::sort(ob.begin(), ob.end());
      if (oa != ob) return cycle;
      stateA = ra.nextState;
      stateB = rb.nextState;
    }
  }
  return -1;
}

}  // namespace tauhls::sim
