#include "verify/symbolic_check.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/unroll.hpp"
#include "common/error.hpp"
#include "fsm/network.hpp"
#include "fsm/signal.hpp"
#include "verify/lowering.hpp"
#include "verify/model_check.hpp"

namespace tauhls::verify {

using aig::Lit;
using detail::OpTable;

std::map<std::string, RuleCost> SymbolicStats::ruleCost() const {
  std::map<std::string, RuleCost> out;
  for (const SymbolicProperty& p : properties) out[p.rule] += p.cost;
  out["MDL008"] += invariantCost;
  return out;
}

std::vector<SymbolicPropertyStat> SymbolicStats::jsonStats() const {
  std::vector<SymbolicPropertyStat> out;
  out.reserve(properties.size());
  for (const SymbolicProperty& p : properties) {
    out.push_back(SymbolicPropertyStat{artifact, p.rule,
                                       propertyVerdictName(p.verdict),
                                       p.depthReached, p.inductionK, p.cost});
  }
  return out;
}

namespace {

constexpr int kNumProperties = 5;  // MDL001..MDL005

/// A witness cone: evaluated on the counterexample's final cycle to name the
/// specific violation inside a property's disjunction.
struct Witness {
  std::string where;
  std::string detail;
  Lit cone = aig::kLitFalse;
};

/// One unit controller's symbolic image: the one-shot machine, its one-hot
/// state inputs, sticky latch inputs, and the op-position decoration the
/// strengthening invariant is built from.
struct ControllerModel {
  fsm::Fsm fsm{"unnamed"};  ///< one-shot rewrite (wraps redirected to DONE)
  int doneState = -1;
  std::vector<Lit> st;              ///< per state: template input
  std::map<std::string, Lit> lat;   ///< latched input -> template input
  std::vector<int> completesOp;     ///< per state: global op index or -1
  std::vector<int> statePos;        ///< per state: unit position (n = DONE)
  std::vector<int> opAtPos;         ///< unit position -> global op index
};

/// One instantiation of the three-phase product step as template cones.
struct StepCones {
  std::map<std::string, Lit> pulse;  ///< final emitted set (last iterate)
  Lit nonConv = aig::kLitFalse;      ///< last iterate != previous (no fixpoint)
  std::vector<std::vector<Lit>> nextSt;
  std::map<std::pair<int, std::string>, Lit> nextLat;
  std::vector<Lit> rePulse;  ///< per op: RE fires this cycle
};

struct Network {
  aig::Aig g;
  std::vector<ControllerModel> ctls;
  std::map<std::string, Lit> ext;  ///< external input -> template input
  std::set<std::string> internal;  ///< pulse (CCO) signal names
  std::vector<Lit> fired;          ///< per op: monitor template input
  Lit allDone = aig::kLitFalse;
  StepCones step;        ///< free completion inputs
  StepCones stepAllTrue; ///< completion inputs forced to 1 (progress check)
  aig::SeqModel seq;
  std::vector<std::vector<std::size_t>> stVar;  ///< [c][state] -> seq var
  Lit bad[kNumProperties] = {};
  std::vector<Witness> witnesses[kNumProperties];
  Lit inv = aig::kLitFalse;  ///< strengthening invariant (k-induction only)
};

/// Value of `sig` as controller `c` observes it during a product step:
/// external inputs read the (possibly forced) free variable, internal pulse
/// signals read the emission iterate plus the controller's own sticky latch.
Lit signalValue(Network& net, const ControllerModel& cm, const std::string& sig,
                const std::map<std::string, Lit>& emitted, bool extTrue) {
  const auto e = net.ext.find(sig);
  if (e != net.ext.end()) return extTrue ? aig::kLitTrue : e->second;
  Lit v = aig::kLitFalse;
  if (net.internal.contains(sig)) {
    const auto p = emitted.find(sig);
    if (p != emitted.end()) v = p->second;
    const auto l = cm.lat.find(sig);
    if (l != cm.lat.end()) v = net.g.orLit(v, l->second);
  }
  return v;
}

Lit evalGuard(Network& net, const ControllerModel& cm, const fsm::Guard& guard,
              const std::map<std::string, Lit>& emitted, bool extTrue) {
  return lowering::guardLit(net.g, guard, [&](const std::string& sig) {
    return signalValue(net, cm, sig, emitted, extTrue);
  });
}

/// One iterate of the phase-1 emission function: which internal pulses the
/// controllers emit given the previous iterate's pulses.
std::map<std::string, Lit> emitIterate(Network& net,
                                       const std::map<std::string, Lit>& prev,
                                       bool extTrue) {
  std::map<std::string, Lit> out;
  for (const std::string& sig : net.internal) out[sig] = aig::kLitFalse;
  for (const ControllerModel& cm : net.ctls) {
    for (const fsm::Transition& t : cm.fsm.transitions()) {
      bool emits = false;
      for (const std::string& sig : t.outputs) {
        if (net.internal.contains(sig)) {
          emits = true;
          break;
        }
      }
      if (!emits) continue;
      const Lit en = net.g.andLit(cm.st[static_cast<std::size_t>(t.from)],
                                  evalGuard(net, cm, t.guard, prev, extTrue));
      for (const std::string& sig : t.outputs) {
        if (net.internal.contains(sig)) out[sig] = net.g.orLit(out[sig], en);
      }
    }
  }
  return out;
}

/// Builds the three product phases as template cones, mirroring
/// fsm::stepNetwork: fsm::kPulseFixpointIterations emission iterates (its
/// convergence budget), priority-encoded transition firing under the final
/// iterate, and sticky latch updates.
StepCones buildStep(Network& net, const OpTable& table, bool extTrue) {
  StepCones out;
  std::map<std::string, Lit> e;
  for (const std::string& sig : net.internal) e[sig] = aig::kLitFalse;
  std::map<std::string, Lit> prev;
  for (int iter = 0; iter < fsm::kPulseFixpointIterations; ++iter) {
    prev = e;
    e = emitIterate(net, e, extTrue);
  }
  out.pulse = e;
  std::vector<Lit> diffs;
  for (const auto& [sig, lit] : e) {
    diffs.push_back(net.g.xorLit(lit, prev.at(sig)));
  }
  out.nonConv = net.g.orN(diffs);

  out.nextSt.resize(net.ctls.size());
  out.rePulse.assign(table.names.size(), aig::kLitFalse);
  for (std::size_t c = 0; c < net.ctls.size(); ++c) {
    const ControllerModel& cm = net.ctls[c];
    out.nextSt[c].assign(cm.fsm.numStates(), aig::kLitFalse);
    for (int s = 0; s < static_cast<int>(cm.fsm.numStates()); ++s) {
      Lit notPrev = aig::kLitTrue;  // phase 2 fires the first enabled guard
      for (const fsm::Transition* t : cm.fsm.transitionsFrom(s)) {
        const Lit gl = evalGuard(net, cm, t->guard, e, extTrue);
        const Lit fire =
            net.g.andN({cm.st[static_cast<std::size_t>(s)], gl, notPrev});
        notPrev = net.g.andLit(notPrev, aig::negate(gl));
        out.nextSt[c][static_cast<std::size_t>(t->to)] =
            net.g.orLit(out.nextSt[c][static_cast<std::size_t>(t->to)], fire);
        for (const std::string& sig : t->outputs) {
          const auto re = table.indexOfRe.find(sig);
          if (re != table.indexOfRe.end()) {
            const auto op = static_cast<std::size_t>(re->second);
            out.rePulse[op] = net.g.orLit(out.rePulse[op], fire);
          }
        }
      }
    }
    for (const auto& [sig, lit] : cm.lat) {
      out.nextLat[{static_cast<int>(c), sig}] =
          net.g.orLit(lit, e.at(sig));
    }
  }
  return out;
}

/// Decorate each one-shot controller with op positions: a state's position is
/// the unit-sequence index of the op it completes (RE in some outgoing
/// transition's outputs); wait states inherit the position of a resolved
/// successor; DONE sits past the last op.  The decoration only feeds the
/// strengthening invariant, whose base case is checked from the initial
/// state, so a mis-derivation on a mutated controller disables induction
/// instead of causing an unsound proof.
void derivePositions(ControllerModel& cm, const OpTable& table) {
  const std::size_t numStates = cm.fsm.numStates();
  cm.completesOp.assign(numStates, -1);
  cm.statePos.assign(numStates, -1);
  std::map<int, int> posOfOp;  // global op index -> unit position
  for (std::size_t j = 0; j < cm.opAtPos.size(); ++j) {
    posOfOp[cm.opAtPos[j]] = static_cast<int>(j);
  }
  for (int s = 0; s < static_cast<int>(numStates); ++s) {
    for (const fsm::Transition* t : cm.fsm.transitionsFrom(s)) {
      for (const std::string& sig : t->outputs) {
        const auto re = table.indexOfRe.find(sig);
        if (re != table.indexOfRe.end()) {
          cm.completesOp[static_cast<std::size_t>(s)] = re->second;
        }
      }
    }
    const int op = cm.completesOp[static_cast<std::size_t>(s)];
    if (op >= 0 && posOfOp.contains(op)) {
      cm.statePos[static_cast<std::size_t>(s)] = posOfOp.at(op);
    }
  }
  cm.statePos[static_cast<std::size_t>(cm.doneState)] =
      static_cast<int>(cm.opAtPos.size());
  // Wait states: inherit a resolved non-self successor's position.
  for (std::size_t round = 0; round < numStates; ++round) {
    bool changed = false;
    for (int s = 0; s < static_cast<int>(numStates); ++s) {
      if (cm.statePos[static_cast<std::size_t>(s)] >= 0) continue;
      for (const fsm::Transition* t : cm.fsm.transitionsFrom(s)) {
        if (t->to == s) continue;
        const int p = cm.statePos[static_cast<std::size_t>(t->to)];
        if (p >= 0) {
          cm.statePos[static_cast<std::size_t>(s)] = p;
          changed = true;
          break;
        }
      }
    }
    if (!changed) break;
  }
  for (int& p : cm.statePos) {
    if (p < 0) p = 0;  // unreachable with generated controllers
  }
}

/// Exactly-one-of over `lits` violated: none set, or at least two set.
Lit notExactlyOne(aig::Aig& g, const std::vector<Lit>& lits) {
  std::vector<Lit> pairs;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    for (std::size_t j = i + 1; j < lits.size(); ++j) {
      pairs.push_back(g.andLit(lits[i], lits[j]));
    }
  }
  return g.orLit(aig::negate(g.orN(lits)), g.orN(pairs));
}

Network buildNetwork(const fsm::DistributedControlUnit& dcu,
                     const sched::ScheduledDfg& s, const OpTable& table) {
  Network net;
  std::map<std::string, int> opIndexOfName;
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    opIndexOfName[table.names[i]] = static_cast<int>(i);
  }
  std::map<std::string, int> opOfCco;
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    opOfCco[fsm::opCompletionSignal(table.names[i])] = static_cast<int>(i);
  }
  for (const auto& [sig, producer] : dcu.producerOf) net.internal.insert(sig);
  for (const std::string& sig : dcu.externalInputs) {
    net.ext[sig] = net.g.addInput(sig);
  }

  // One-shot controllers and their template inputs.
  for (const fsm::UnitController& src : dcu.controllers) {
    TAUHLS_CHECK(!src.ops.empty(), "controller binds no operations");
    ControllerModel cm;
    cm.fsm = detail::oneShotController(
        src.fsm,
        fsm::registerEnableSignal(s.graph.node(src.ops.back()).name));
    cm.doneState = cm.fsm.findState("DONE");
    TAUHLS_ASSERT(cm.doneState >= 0, "one-shot controller lost its DONE state");
    for (dfg::NodeId op : src.ops) {
      cm.opAtPos.push_back(opIndexOfName.at(s.graph.node(op).name));
    }
    for (int st = 0; st < static_cast<int>(cm.fsm.numStates()); ++st) {
      cm.st.push_back(
          net.g.addInput("st:" + cm.fsm.name() + ":" + cm.fsm.stateName(st)));
    }
    for (const std::string& sig : src.latchedInputs) {
      cm.lat[sig] = net.g.addInput("lat:" + cm.fsm.name() + ":" + sig);
    }
    derivePositions(cm, table);
    net.ctls.push_back(std::move(cm));
  }
  for (const std::string& name : table.names) {
    net.fired.push_back(net.g.addInput("fired:" + name));
  }

  std::vector<Lit> doneBits;
  for (const ControllerModel& cm : net.ctls) {
    doneBits.push_back(cm.st[static_cast<std::size_t>(cm.doneState)]);
  }
  net.allDone = net.g.andN(doneBits);

  net.step = buildStep(net, table, /*extTrue=*/false);
  net.stepAllTrue = buildStep(net, table, /*extTrue=*/true);

  // --- Sequential model: states, latches, fired monitors ------------------
  net.stVar.resize(net.ctls.size());
  for (std::size_t c = 0; c < net.ctls.size(); ++c) {
    const ControllerModel& cm = net.ctls[c];
    for (int st = 0; st < static_cast<int>(cm.fsm.numStates()); ++st) {
      net.stVar[c].push_back(net.seq.vars.size());
      net.seq.vars.push_back(aig::SeqVar{
          "st:" + cm.fsm.name() + ":" + cm.fsm.stateName(st),
          cm.st[static_cast<std::size_t>(st)],
          net.step.nextSt[c][static_cast<std::size_t>(st)],
          st == cm.fsm.initial()});
    }
  }
  for (std::size_t c = 0; c < net.ctls.size(); ++c) {
    for (const auto& [sig, lit] : net.ctls[c].lat) {
      net.seq.vars.push_back(
          aig::SeqVar{"lat:" + net.ctls[c].fsm.name() + ":" + sig, lit,
                      net.step.nextLat.at({static_cast<int>(c), sig}), false});
    }
  }
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    net.seq.vars.push_back(
        aig::SeqVar{"fired:" + table.names[i], net.fired[i],
                    net.g.orLit(net.fired[i], net.step.rePulse[i]), false});
  }

  // --- MDL001: a controller has zero or several enabled transitions, or the
  // emission fixpoint fails to converge.  Checked under both the empty and
  // the final pulse iterate -- the explicit engine steps every controller
  // under each iterate and throws on either defect.
  {
    std::map<std::string, Lit> empty;
    for (const std::string& sig : net.internal) empty[sig] = aig::kLitFalse;
    std::vector<Lit> parts;
    for (const ControllerModel& cm : net.ctls) {
      std::vector<Lit> perState;
      for (int st = 0; st < static_cast<int>(cm.fsm.numStates()); ++st) {
        std::vector<Lit> gEmpty;
        std::vector<Lit> gFinal;
        for (const fsm::Transition* t : cm.fsm.transitionsFrom(st)) {
          gEmpty.push_back(evalGuard(net, cm, t->guard, empty, false));
          gFinal.push_back(evalGuard(net, cm, t->guard, net.step.pulse, false));
        }
        const Lit viol = net.g.orLit(notExactlyOne(net.g, gEmpty),
                                     notExactlyOne(net.g, gFinal));
        perState.push_back(
            net.g.andLit(cm.st[static_cast<std::size_t>(st)], viol));
      }
      const Lit cone = net.g.orN(perState);
      parts.push_back(cone);
      net.witnesses[0].push_back(
          Witness{cm.fsm.name(),
                  "has zero or several enabled transitions", cone});
    }
    parts.push_back(net.step.nonConv);
    net.witnesses[0].push_back(Witness{
        "", "completion-pulse fixpoint did not converge", net.step.nonConv});
    net.bad[0] = net.g.orN(parts);
  }

  // --- MDL002: a non-done configuration repeats itself even under all-true
  // completion inputs -- no controller can ever make progress again.
  {
    std::vector<Lit> same;
    for (std::size_t c = 0; c < net.ctls.size(); ++c) {
      const ControllerModel& cm = net.ctls[c];
      for (int st = 0; st < static_cast<int>(cm.fsm.numStates()); ++st) {
        same.push_back(aig::negate(net.g.xorLit(
            cm.st[static_cast<std::size_t>(st)],
            net.stepAllTrue.nextSt[c][static_cast<std::size_t>(st)])));
      }
      for (const auto& [sig, lit] : cm.lat) {
        same.push_back(aig::negate(net.g.xorLit(
            lit, net.stepAllTrue.nextLat.at({static_cast<int>(c), sig}))));
      }
    }
    net.bad[1] = net.g.andN({aig::negate(net.allDone), net.g.andN(same)});
    for (const ControllerModel& cm : net.ctls) {
      net.witnesses[1].push_back(Witness{
          cm.fsm.name(), "is stuck waiting for a completion that never comes",
          net.g.andLit(net.bad[1],
                       aig::negate(cm.st[static_cast<std::size_t>(
                           cm.doneState)]))});
    }
  }

  // --- MDL003: lock-step -- an op's RE fires twice in one iteration, or the
  // all-DONE configuration is reached with some op never fired.
  {
    std::vector<Lit> parts;
    for (std::size_t i = 0; i < table.names.size(); ++i) {
      const Lit refire = net.g.andLit(net.step.rePulse[i], net.fired[i]);
      parts.push_back(refire);
      net.witnesses[2].push_back(
          Witness{table.names[i], "completes twice in one iteration", refire});
    }
    for (std::size_t i = 0; i < table.names.size(); ++i) {
      const Lit unfired =
          net.g.andLit(net.allDone, aig::negate(net.fired[i]));
      parts.push_back(unfired);
      net.witnesses[2].push_back(Witness{
          table.names[i], "never completes in a finished iteration", unfired});
    }
    net.bad[2] = net.g.orN(parts);
  }

  // --- MDL004: causality -- RE fires although a data predecessor has not.
  {
    std::vector<Lit> parts;
    for (std::size_t i = 0; i < table.names.size(); ++i) {
      for (const int p : table.dataPreds[i]) {
        const Lit cone = net.g.andLit(
            net.step.rePulse[i],
            aig::negate(net.fired[static_cast<std::size_t>(p)]));
        parts.push_back(cone);
        net.witnesses[3].push_back(
            Witness{table.names[i],
                    "completes although data predecessor " +
                        table.names[static_cast<std::size_t>(p)] +
                        " has not completed",
                    cone});
      }
    }
    net.bad[3] = net.g.orN(parts);
  }

  // --- MDL005: per-unit order -- RE fires before the unit's previous op.
  {
    std::vector<Lit> parts;
    for (std::size_t i = 0; i < table.names.size(); ++i) {
      const int q = table.unitPred[i];
      if (q < 0) continue;
      const Lit cone = net.g.andLit(
          net.step.rePulse[i],
          aig::negate(net.fired[static_cast<std::size_t>(q)]));
      parts.push_back(cone);
      net.witnesses[4].push_back(
          Witness{table.names[i],
                  "completes before its unit's previous operation " +
                      table.names[static_cast<std::size_t>(q)],
                  cone});
    }
    net.bad[4] = net.g.orN(parts);
  }

  // --- Strengthening invariant (k-induction only; never assumed by BMC):
  // one-hot states, fired == "state is past the op", latch == producer
  // fired, executing states imply their predecessors' latches.
  {
    std::vector<Lit> parts;
    for (const ControllerModel& cm : net.ctls) {
      parts.push_back(aig::negate(notExactlyOne(net.g, cm.st)));
      for (std::size_t j = 0; j < cm.opAtPos.size(); ++j) {
        std::vector<Lit> past;
        for (int st = 0; st < static_cast<int>(cm.fsm.numStates()); ++st) {
          if (cm.statePos[static_cast<std::size_t>(st)] >
              static_cast<int>(j)) {
            past.push_back(cm.st[static_cast<std::size_t>(st)]);
          }
        }
        parts.push_back(aig::negate(net.g.xorLit(
            net.fired[static_cast<std::size_t>(cm.opAtPos[j])],
            net.g.orN(past))));
      }
      for (const auto& [sig, lit] : cm.lat) {
        const auto producer = opOfCco.find(sig);
        if (producer == opOfCco.end()) continue;
        parts.push_back(aig::negate(net.g.xorLit(
            lit, net.fired[static_cast<std::size_t>(producer->second)])));
      }
      for (int st = 0; st < static_cast<int>(cm.fsm.numStates()); ++st) {
        const int op = cm.completesOp[static_cast<std::size_t>(st)];
        if (op < 0) continue;
        for (const int p : table.dataPreds[static_cast<std::size_t>(op)]) {
          const auto l = cm.lat.find(
              fsm::opCompletionSignal(table.names[static_cast<std::size_t>(p)]));
          if (l == cm.lat.end()) continue;
          parts.push_back(net.g.orLit(
              aig::negate(cm.st[static_cast<std::size_t>(st)]), l->second));
        }
      }
    }
    net.inv = net.g.andN(parts);
  }
  return net;
}

/// Controller `cm`'s one-hot state at `frame`: "?" or "multi" when the
/// one-hot encoding is broken (MDL001 traces).
std::string stateNameAt(const FrameEval& eval, int frame,
                        const ControllerModel& cm) {
  std::string found;
  int count = 0;
  for (int st = 0; st < static_cast<int>(cm.fsm.numStates()); ++st) {
    if (eval(frame, cm.st[static_cast<std::size_t>(st)])) {
      found = cm.fsm.stateName(st);
      ++count;
    }
  }
  if (count == 1) return found;
  return count == 0 ? "?" : "multi";
}

/// Multi-line per-cycle waveform of frames 0..depth.
std::string waveform(const Network& net, const FrameEval& eval, int depth) {
  std::ostringstream os;
  for (int f = 0; f <= depth; ++f) {
    os << "\n  cycle " << f << ":";
    for (const auto& [sig, lit] : net.ext) {
      os << " " << sig << "=" << (eval(f, lit) ? "1" : "0");
    }
    if (!net.ext.empty()) os << " |";
    for (const ControllerModel& cm : net.ctls) {
      os << " " << cm.fsm.name() << "@" << stateNameAt(eval, f, cm);
    }
    std::string pulses;
    for (const auto& [sig, lit] : net.step.pulse) {
      if (eval(f, lit)) pulses += " " + sig;
    }
    if (!pulses.empty()) os << " | pulses" << pulses;
    std::string latched;
    for (const ControllerModel& cm : net.ctls) {
      for (const auto& [sig, lit] : cm.lat) {
        if (eval(f, lit)) latched += " " + cm.fsm.name() + ":" + sig;
      }
    }
    if (!latched.empty()) os << " | latched" << latched;
  }
  return os.str();
}

}  // namespace

SymbolicArtifact symbolicModelCheck(const fsm::DistributedControlUnit& dcu,
                                    const sched::ScheduledDfg& s,
                                    const fsm::Fsm* centSync,
                                    const SymbolicCheckOptions& options) {
  const OpTable table = detail::buildOpTable(s);
  const std::string artifact = "product " + s.graph.name();

  SymbolicArtifact out;
  out.stats.artifact = artifact;
  out.stats.controllers = dcu.controllers.size();

  Network net = buildNetwork(dcu, s, table);
  out.stats.stateBits = net.seq.vars.size();
  out.stats.templateNodes = net.g.numNodes();

  static const char* kRules[kNumProperties] = {"MDL001", "MDL002", "MDL003",
                                               "MDL004", "MDL005"};
  const InductionRun run = proveSafety(
      net.g, net.seq, std::vector<Lit>(net.bad, net.bad + kNumProperties),
      net.inv, options.maxDepth, options.maxConflicts,
      [&](std::size_t p, int depth, const FrameEval& eval) {
        std::string where;
        std::string detail = "safety property violated";
        for (const Witness& w : net.witnesses[p]) {
          if (eval(depth, w.cone)) {
            where = w.where;
            detail = (w.where.empty() ? "" : w.where + " ") + w.detail;
            break;
          }
        }
        out.report.add(kRules[p], artifact, where,
                       "BMC counterexample after " +
                           std::to_string(depth + 1) + " cycle(s): " + detail +
                           waveform(net, eval, depth));
      });
  out.stats.invariantHolds = run.invariantHolds;
  out.stats.invariantCost = run.invariantCost;
  for (int p = 0; p < kNumProperties; ++p) {
    const InductionResult& r = run.properties[static_cast<std::size_t>(p)];
    out.stats.properties.push_back(SymbolicProperty{
        kRules[p], r.verdict, r.depthReached, r.inductionK,
        r.verdict == PropertyVerdict::Counterexample ? r.cexDepth + 1 : 0,
        r.cost});
  }
  const std::vector<SymbolicProperty>& props = out.stats.properties;

  // MDL008: one summary per network so the verdicts are visible in the
  // rendered report, not only in the JSON stats.
  {
    std::ostringstream os;
    int proved = 0;
    for (const SymbolicProperty& p : props) {
      if (p.verdict == PropertyVerdict::Proved) ++proved;
    }
    os << "BMC + k-induction over " << net.seq.vars.size()
       << " state bits: " << proved << "/" << kNumProperties << " proved (";
    for (const SymbolicProperty& p : props) {
      if (&p != &props.front()) os << ", ";
      os << p.rule << " " << propertyVerdictName(p.verdict);
      if (p.verdict == PropertyVerdict::Proved) os << " k=" << p.inductionK;
    }
    os << "); invariant base "
       << (out.stats.invariantHolds ? "holds" : "not established");
    out.report.add("MDL008", artifact, "", os.str());
  }

  // MDL006: with lock-step and progress PROVED, the distributed product's
  // per-iteration RE alphabet is exactly the full op set; compare it against
  // the CENT-SYNC baseline's alphabet like the explicit engine does.
  if (centSync != nullptr) {
    const detail::EventAnalysis cent = detail::analyzeEvents(
        *centSync, table, "fsm " + centSync->name(), out.report);
    const bool alphabetKnown =
        props[1].verdict == PropertyVerdict::Proved &&
        props[2].verdict == PropertyVerdict::Proved;
    if (alphabetKnown) {
      std::set<int> all;
      for (int i = 0; i < static_cast<int>(table.names.size()); ++i) {
        all.insert(i);
      }
      std::set<int> onlyDistributed;
      std::set<int> onlyCentral;
      std::set_difference(all.begin(), all.end(), cent.alphabet.begin(),
                          cent.alphabet.end(),
                          std::inserter(onlyDistributed, onlyDistributed.end()));
      std::set_difference(cent.alphabet.begin(), cent.alphabet.end(),
                          all.begin(), all.end(),
                          std::inserter(onlyCentral, onlyCentral.end()));
      if (!onlyDistributed.empty() || !onlyCentral.empty()) {
        std::string msg = "per-iteration register-enable sets differ:";
        if (!onlyDistributed.empty()) {
          msg += " only distributed: " +
                 detail::joinNames(table, onlyDistributed) + ";";
        }
        if (!onlyCentral.empty()) {
          msg += " only cent_sync: " + detail::joinNames(table, onlyCentral) +
                 ";";
        }
        msg.pop_back();
        out.report.add("MDL006", artifact, "", msg);
      }
    }
  }
  return out;
}

}  // namespace tauhls::verify
