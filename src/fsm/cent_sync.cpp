#include "fsm/cent_sync.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fsm/signal.hpp"

namespace tauhls::fsm {

using dfg::NodeId;

Fsm buildCentSync(const sched::ScheduledDfg& s) {
  Fsm fsm("CENT_SYNC_FSM_" + s.graph.name());
  const auto& steps = s.taubm.steps;
  TAUHLS_CHECK(!steps.empty(), "cannot build an FSM for an empty schedule");

  // Declarations.
  for (int u = 0; u < static_cast<int>(s.binding.numUnits()); ++u) {
    if (s.unitIsTelescopic(u)) {
      fsm.addInput(unitCompletionSignal(s.binding.unit(u)));
    }
  }
  for (NodeId v : s.graph.opIds()) {
    fsm.addOutput(operandFetchSignal(s.graph.node(v).name));
    fsm.addOutput(registerEnableSignal(s.graph.node(v).name));
  }

  // States: S_k per step, S_k' for split steps.
  const int numSteps = static_cast<int>(steps.size());
  std::vector<int> stateS(numSteps), stateSp(numSteps, -1);
  for (int k = 0; k < numSteps; ++k) {
    stateS[k] = fsm.addState(executionStateName(k, 0));
    if (steps[k].split) stateSp[k] = fsm.addState(executionStateName(k, 1));
  }
  fsm.setInitial(stateS[0]);

  for (int k = 0; k < numSteps; ++k) {
    const sched::TaubmStep& step = steps[k];
    const int next = stateS[(k + 1) % numSteps];

    std::vector<std::string> ofAll;
    std::vector<std::string> reAll;
    std::vector<std::string> ofTau;
    std::vector<std::string> reTau;
    std::vector<std::string> reFixed;
    for (NodeId v : step.ops) {
      const std::string& name = s.graph.node(v).name;
      ofAll.push_back(operandFetchSignal(name));
      reAll.push_back(registerEnableSignal(name));
      const bool isTau = std::find(step.tauOps.begin(), step.tauOps.end(), v) !=
                         step.tauOps.end();
      (isTau ? ofTau : reFixed)
          .push_back(isTau ? operandFetchSignal(name)
                           : registerEnableSignal(name));
      if (isTau) reTau.push_back(registerEnableSignal(name));
    }

    if (!step.split) {
      std::vector<std::string> out = ofAll;
      out.insert(out.end(), reAll.begin(), reAll.end());
      fsm.addTransition(stateS[k], next, Guard::always(), std::move(out));
      continue;
    }
    // Completion signals of the units executing the step's TAU ops.
    std::vector<std::string> cs;
    for (NodeId v : step.tauOps) {
      cs.push_back(unitCompletionSignal(s.binding.unit(s.binding.unitOf(v))));
    }
    std::sort(cs.begin(), cs.end());
    cs.erase(std::unique(cs.begin(), cs.end()), cs.end());

    // All TAU ops hit SD: the whole step retires in one cycle.
    std::vector<std::string> fastOut = ofAll;
    fastOut.insert(fastOut.end(), reAll.begin(), reAll.end());
    fsm.addTransition(stateS[k], next, Guard::allOf(cs), std::move(fastOut));
    // Some TAU op missed SD: fixed ops retire now, TAU ops spend T_k'.
    std::vector<std::string> slowOut = ofAll;
    slowOut.insert(slowOut.end(), reFixed.begin(), reFixed.end());
    fsm.addTransition(stateS[k], stateSp[k], Guard::notAllOf(cs),
                      std::move(slowOut));
    std::vector<std::string> secondOut = ofTau;
    secondOut.insert(secondOut.end(), reTau.begin(), reTau.end());
    fsm.addTransition(stateSp[k], next, Guard::always(), std::move(secondOut));
  }
  validateFsm(fsm);
  return fsm;
}

Fsm buildTaubmFsm(const sched::ScheduledDfg& s) {
  int telescopicUnits = 0;
  for (int u = 0; u < static_cast<int>(s.binding.numUnits()); ++u) {
    if (s.unitIsTelescopic(u)) ++telescopicUnits;
  }
  TAUHLS_CHECK(telescopicUnits <= 1,
               "the original TAUBM FSM is defined for a single TAU; use "
               "buildCentSync or buildDistributed for more");
  Fsm fsm = buildCentSync(s);
  // Rename to reflect the construction it reproduces (Fig. 2(c)).
  Fsm renamed("TAUBM_FSM_" + s.graph.name());
  for (std::size_t i = 0; i < fsm.numStates(); ++i) {
    renamed.addState(fsm.stateName(static_cast<int>(i)));
  }
  for (const std::string& in : fsm.inputs()) renamed.addInput(in);
  for (const std::string& out : fsm.outputs()) renamed.addOutput(out);
  for (const Transition& t : fsm.transitions()) {
    renamed.addTransition(t.from, t.to, t.guard, t.outputs);
  }
  renamed.setInitial(fsm.initial());
  return renamed;
}

}  // namespace tauhls::fsm
