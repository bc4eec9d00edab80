#include "fsm/distributed.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fsm/signal.hpp"

namespace tauhls::fsm {

using dfg::NodeId;

std::size_t DistributedControlUnit::totalStates() const {
  std::size_t n = 0;
  for (const UnitController& c : controllers) n += c.fsm.numStates();
  return n;
}

int DistributedControlUnit::totalFlipFlops() const {
  int n = 0;
  for (const UnitController& c : controllers) n += c.fsm.flipFlopCount();
  return n;
}

int DistributedControlUnit::completionLatchCount() const {
  int n = 0;
  for (const UnitController& c : controllers) {
    n += static_cast<int>(c.latchedInputs.size());
  }
  return n;
}

namespace {

/// CCO_* signals of `op`'s dependence predecessors (data + state edges) bound
/// to a *different* unit (the paper restricts the predecessor relation to
/// cross-unit pairs, §4.2).
std::vector<std::string> externalPredSignals(const sched::ScheduledDfg& s,
                                             NodeId op, int unitId) {
  std::vector<std::string> out;
  for (NodeId p : s.graph.dependencePredecessors(op)) {
    if (!s.graph.isOp(p)) continue;
    const int pu = s.binding.unitOf(p);
    TAUHLS_ASSERT(pu >= 0, "predecessor op is unbound");
    if (pu != unitId) out.push_back(opCompletionSignal(s.graph.node(p).name));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

UnitController buildController(const sched::ScheduledDfg& s, int unitId,
                               int levels) {
  const sched::UnitInstance& unit = s.binding.unit(unitId);
  const std::vector<NodeId>& seq = s.binding.sequenceOf(unitId);
  TAUHLS_CHECK(!seq.empty(), "unit has no bound operations: " + unit.name);
  TAUHLS_CHECK(levels >= 1, "unit needs at least one delay level: " + unit.name);
  const int n = static_cast<int>(seq.size());

  UnitController ctl;
  ctl.unitId = unitId;
  ctl.telescopic = levels > 1;
  ctl.ops = seq;
  ctl.fsm = Fsm("D_FSM_" + unit.name);
  Fsm& fsm = ctl.fsm;

  const std::string cT = unitCompletionSignal(unit);
  if (ctl.telescopic) fsm.addInput(cT);

  // Per-op predecessor signals and declarations.
  std::vector<std::vector<std::string>> preds(n);
  for (int i = 0; i < n; ++i) {
    preds[i] = externalPredSignals(s, seq[i], unitId);
    for (const std::string& sig : preds[i]) {
      fsm.addInput(sig);
      ctl.latchedInputs.push_back(sig);
    }
    const std::string& opName = s.graph.node(seq[i]).name;
    fsm.addOutput(operandFetchSignal(opName));
    fsm.addOutput(registerEnableSignal(opName));
    fsm.addOutput(opCompletionSignal(opName));
  }
  std::sort(ctl.latchedInputs.begin(), ctl.latchedInputs.end());
  ctl.latchedInputs.erase(
      std::unique(ctl.latchedInputs.begin(), ctl.latchedInputs.end()),
      ctl.latchedInputs.end());

  // States (paper step 2): level chain S_i^0..S_i^{L-1}; R_i when preds exist.
  std::vector<std::vector<int>> stateS(n);
  std::vector<int> stateR(n, -1);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < levels; ++k) {
      stateS[i].push_back(fsm.addState(executionStateName(i, k)));
    }
    if (!preds[i].empty()) stateR[i] = fsm.addState(readyStateName(i));
  }
  fsm.setInitial(stateR[0] != -1 ? stateR[0] : stateS[0][0]);

  // Transitions (paper steps 3 & 4).  S_{n} wraps to S_0 / R_0.
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    const std::string& opName = s.graph.node(seq[i]).name;
    const std::vector<std::string> completing = {operandFetchSignal(opName),
                                                 registerEnableSignal(opName),
                                                 opCompletionSignal(opName)};
    // Every level but the last completes O_i on C_T and otherwise advances;
    // the last level completes unconditionally.
    for (int k = 0; k < levels; ++k) {
      Guard base = Guard::always();
      if (k < levels - 1) {
        fsm.addTransition(stateS[i][k], stateS[i][k + 1],
                          Guard::literal(cT, false),
                          {operandFetchSignal(opName)});
        base = Guard::literal(cT, true);
      }
      if (preds[j].empty()) {
        fsm.addTransition(stateS[i][k], stateS[j][0], base, completing);
      } else {
        fsm.addTransition(stateS[i][k], stateS[j][0],
                          base.conjoin(Guard::allOf(preds[j])), completing);
        fsm.addTransition(stateS[i][k], stateR[j],
                          base.conjoin(Guard::notAllOf(preds[j])), completing);
      }
    }
    if (stateR[j] != -1) {
      fsm.addTransition(stateR[j], stateS[j][0], Guard::allOf(preds[j]), {});
      fsm.addTransition(stateR[j], stateR[j], Guard::notAllOf(preds[j]), {});
    }
  }
  validateFsm(fsm);
  return ctl;
}

}  // namespace

int levelsOfUnit(const sched::ScheduledDfg& s, const LevelOverrides& overrides,
                 int unitId) {
  const auto it = overrides.find(s.binding.unit(unitId).cls);
  if (it != overrides.end()) return it->second;
  return s.unitIsTelescopic(unitId) ? 2 : 1;
}

DistributedControlUnit buildDistributed(const sched::ScheduledDfg& s,
                                        const LevelOverrides& overrides) {
  DistributedControlUnit dcu;
  for (int u = 0; u < static_cast<int>(s.binding.numUnits()); ++u) {
    dcu.controllers.push_back(
        buildController(s, u, levelsOfUnit(s, overrides, u)));
  }
  // Global wiring.
  for (std::size_t c = 0; c < dcu.controllers.size(); ++c) {
    const UnitController& ctl = dcu.controllers[c];
    if (ctl.telescopic) {
      dcu.externalInputs.push_back(
          unitCompletionSignal(s.binding.unit(ctl.unitId)));
    }
    for (NodeId op : ctl.ops) {
      dcu.producerOf[opCompletionSignal(s.graph.node(op).name)] =
          static_cast<int>(c);
    }
  }
  for (std::size_t c = 0; c < dcu.controllers.size(); ++c) {
    for (const std::string& sig : dcu.controllers[c].latchedInputs) {
      TAUHLS_ASSERT(dcu.producerOf.contains(sig),
                    "consumed completion signal has no producer: " + sig);
      TAUHLS_ASSERT(dcu.producerOf.at(sig) != static_cast<int>(c),
                    "controller consumes its own completion signal: " + sig);
      dcu.consumersOf[sig].insert(static_cast<int>(c));
    }
  }
  return dcu;
}

}  // namespace tauhls::fsm
