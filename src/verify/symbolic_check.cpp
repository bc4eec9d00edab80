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
#include "fsm/signal.hpp"
#include "synth/encoding.hpp"
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

/// One unit controller's decoration: the one-shot machine's DONE state and
/// the op positions the strengthening invariant is built from.
struct ControllerModel {
  int doneState = -1;
  std::vector<int> completesOp;  ///< per state: global op index or -1
  std::vector<int> statePos;     ///< per state: unit position (n = DONE)
  std::vector<int> opAtPos;      ///< unit position -> global op index
};

struct Network {
  aig::Aig g;
  fsm::DistributedControlUnit oneShot;  ///< wraps redirected to DONE
  std::vector<ControllerModel> ctls;
  std::vector<std::vector<Lit>> state;  ///< [c]: one-hot state bits
  std::map<std::string, Lit> ext;   ///< external input -> template input
  std::map<std::string, Lit> held;  ///< latched signal -> template input
  lowering::NetworkCones step;      ///< the cycle under free C_T inputs
  aig::SeqModel seq;
  Lit bad[kNumProperties] = {};
  std::vector<Witness> witnesses[kNumProperties];
  Lit inv = aig::kLitFalse;  ///< strengthening invariant (k-induction only)
};

/// Decorate each one-shot controller with op positions: a state's position is
/// the unit-sequence index of the op it completes (RE in some outgoing
/// transition's outputs); wait states inherit the position of a resolved
/// successor; DONE sits past the last op.  The decoration only feeds the
/// strengthening invariant, whose base case is checked from the initial
/// state, so a mis-derivation on a mutated controller disables induction
/// instead of causing an unsound proof.
void derivePositions(ControllerModel& cm, const fsm::Fsm& f,
                     const OpTable& table) {
  const std::size_t numStates = f.numStates();
  cm.completesOp.assign(numStates, -1);
  cm.statePos.assign(numStates, -1);
  std::map<int, int> posOfOp;  // global op index -> unit position
  for (std::size_t j = 0; j < cm.opAtPos.size(); ++j) {
    posOfOp[cm.opAtPos[j]] = static_cast<int>(j);
  }
  for (int s = 0; s < static_cast<int>(numStates); ++s) {
    for (const fsm::Transition* t : f.transitionsFrom(s)) {
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
      for (const fsm::Transition* t : f.transitionsFrom(s)) {
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
  net.oneShot = detail::oneShotNetwork(dcu, s);
  const std::vector<fsm::UnitController>& units = net.oneShot.controllers;
  std::map<std::string, int> opIndexOfName;
  std::map<std::string, int> opOfCco;
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    opIndexOfName[table.names[i]] = static_cast<int>(i);
    opOfCco[fsm::opCompletionSignal(table.names[i])] = static_cast<int>(i);
  }
  for (const std::string& sig : dcu.externalInputs) {
    net.ext[sig] = net.g.addInput(sig);
  }

  // One-hot state bits per one-shot controller, one completion latch per
  // latched signal, one fired monitor per op: the template inputs.
  std::vector<synth::Encoding> encs;
  for (const fsm::UnitController& u : units) {
    const fsm::Fsm& f = u.fsm;
    ControllerModel cm;
    cm.doneState = f.findState("DONE");
    for (dfg::NodeId op : u.ops) {
      cm.opAtPos.push_back(opIndexOfName.at(s.graph.node(op).name));
    }
    encs.push_back(synth::encodeStates(f, synth::EncodingStyle::OneHot));
    std::vector<Lit>& bits = net.state.emplace_back();
    for (int st = 0; st < static_cast<int>(f.numStates()); ++st) {
      bits.push_back(net.g.addInput("st:" + f.name() + ":" + f.stateName(st)));
    }
    derivePositions(cm, f, table);
    net.ctls.push_back(std::move(cm));
  }
  for (const fsm::UnitController& u : units) {
    for (const std::string& sig : u.latchedInputs) {
      if (dcu.producerOf.contains(sig) && !net.held.contains(sig)) {
        net.held[sig] = net.g.addInput("lat:" + sig);
      }
    }
  }
  std::vector<Lit> fired;  // per op: monitor template input
  for (const std::string& name : table.names) {
    fired.push_back(net.g.addInput("fired:" + name));
  }

  std::vector<Lit> doneBits;
  for (std::size_t c = 0; c < net.ctls.size(); ++c) {
    doneBits.push_back(
        net.state[c][static_cast<std::size_t>(net.ctls[c].doneState)]);
  }
  const Lit allDone = net.g.andN(doneBits);

  // The cycle cones: the same lowering XPR ties to the emitted RTL.
  auto extOf = [&](const std::string& sig) {
    const auto e = net.ext.find(sig);
    return e != net.ext.end() ? e->second : aig::kLitFalse;
  };
  net.step = lowering::networkStep(net.g, net.oneShot, encs, net.state,
                                   net.held, extOf);
  // MDL002's progress check steps with every completion input forced to 1.
  const lowering::NetworkCones stepAllTrue = lowering::networkStep(
      net.g, net.oneShot, encs, net.state, net.held,
      [&](const std::string& sig) {
        return net.ext.contains(sig) ? aig::kLitTrue : aig::kLitFalse;
      });
  std::vector<Lit> rePulse(table.names.size(), aig::kLitFalse);
  for (const lowering::FnMap& fns : net.step.fns) {
    for (const auto& [sig, lit] : fns) {
      const auto re = table.indexOfRe.find(sig);
      if (re == table.indexOfRe.end()) continue;
      const auto op = static_cast<std::size_t>(re->second);
      rePulse[op] = net.g.orLit(rePulse[op], lit);
    }
  }
  // Latches capture the last round's pulses (every held signal has one)
  // and never clear within the one-shot iteration.
  auto nextHeld = [&](const lowering::NetworkCones& step,
                      const std::string& sig, Lit cur) {
    return lowering::latchNext(net.g, cur, step.pulse.at(sig), aig::kLitFalse);
  };

  // --- Sequential model: states, latches, fired monitors ------------------
  for (std::size_t c = 0; c < units.size(); ++c) {
    const fsm::Fsm& f = units[c].fsm;
    for (int st = 0; st < static_cast<int>(f.numStates()); ++st) {
      const auto b = static_cast<std::size_t>(st);
      net.seq.vars.push_back(aig::SeqVar{
          "st:" + f.name() + ":" + f.stateName(st), net.state[c][b],
          net.step.fns[c][b].second, st == f.initial()});
    }
  }
  for (const auto& [sig, lit] : net.held) {
    net.seq.vars.push_back(
        aig::SeqVar{"lat:" + sig, lit, nextHeld(net.step, sig, lit), false});
  }
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    net.seq.vars.push_back(
        aig::SeqVar{"fired:" + table.names[i], fired[i],
                    net.g.orLit(fired[i], rePulse[i]), false});
  }

  // --- MDL001: a controller has zero or several enabled transitions, or the
  // pulse fixpoint fails to converge.  Checked under the first round's
  // inputs (latches only) and the last round's -- the explicit engine steps
  // every controller under each pulse iterate and throws on either defect.
  {
    auto firstRead = [&](const std::string& sig) {
      const auto h = net.held.find(sig);
      return h != net.held.end() ? h->second : extOf(sig);
    };
    std::vector<Lit> parts;
    for (std::size_t c = 0; c < units.size(); ++c) {
      const fsm::Fsm& f = units[c].fsm;
      const std::map<std::string, Lit>& lastRead = net.step.reads[c];
      std::vector<Lit> perState;
      for (int st = 0; st < static_cast<int>(f.numStates()); ++st) {
        std::vector<Lit> gFirst;
        std::vector<Lit> gLast;
        for (const fsm::Transition* t : f.transitionsFrom(st)) {
          gFirst.push_back(lowering::guardLit(net.g, t->guard, firstRead));
          gLast.push_back(lowering::guardLit(
              net.g, t->guard,
              [&](const std::string& sig) { return lastRead.at(sig); }));
        }
        const Lit viol = net.g.orLit(notExactlyOne(net.g, gFirst),
                                     notExactlyOne(net.g, gLast));
        perState.push_back(net.g.andLit(
            net.state[c][static_cast<std::size_t>(st)], viol));
      }
      const Lit cone = net.g.orN(perState);
      parts.push_back(cone);
      net.witnesses[0].push_back(
          Witness{f.name(), "has zero or several enabled transitions", cone});
    }
    std::vector<Lit> diffs;
    for (const auto& [sig, lit] : net.step.pulse) {
      diffs.push_back(net.g.xorLit(lit, net.step.prevPulse.at(sig)));
    }
    const Lit nonConv = net.g.orN(diffs);
    parts.push_back(nonConv);
    net.witnesses[0].push_back(
        Witness{"", "completion-pulse fixpoint did not converge", nonConv});
    net.bad[0] = net.g.orN(parts);
  }

  // --- MDL002: a non-done configuration repeats itself even under all-true
  // completion inputs -- no controller can ever make progress again.
  {
    std::vector<Lit> same;
    for (std::size_t c = 0; c < units.size(); ++c) {
      for (std::size_t b = 0; b < net.state[c].size(); ++b) {
        same.push_back(aig::negate(net.g.xorLit(
            net.state[c][b], stepAllTrue.fns[c][b].second)));
      }
    }
    for (const auto& [sig, lit] : net.held) {
      same.push_back(aig::negate(
          net.g.xorLit(lit, nextHeld(stepAllTrue, sig, lit))));
    }
    net.bad[1] = net.g.andN({aig::negate(allDone), net.g.andN(same)});
    for (std::size_t c = 0; c < units.size(); ++c) {
      const ControllerModel& cm = net.ctls[c];
      net.witnesses[1].push_back(Witness{
          units[c].fsm.name(),
          "is stuck waiting for a completion that never comes",
          net.g.andLit(net.bad[1],
                       aig::negate(net.state[c][static_cast<std::size_t>(
                           cm.doneState)]))});
    }
  }

  // --- MDL003: lock-step -- an op's RE fires twice in one iteration, or the
  // all-DONE configuration is reached with some op never fired.
  {
    std::vector<Lit> parts;
    for (std::size_t i = 0; i < table.names.size(); ++i) {
      const Lit refire = net.g.andLit(rePulse[i], fired[i]);
      parts.push_back(refire);
      net.witnesses[2].push_back(
          Witness{table.names[i], "completes twice in one iteration", refire});
    }
    for (std::size_t i = 0; i < table.names.size(); ++i) {
      const Lit unfired =
          net.g.andLit(allDone, aig::negate(fired[i]));
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
            rePulse[i],
            aig::negate(fired[static_cast<std::size_t>(p)]));
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
          rePulse[i],
          aig::negate(fired[static_cast<std::size_t>(q)]));
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
  // every controller holds a valid one-hot code (bit st is state st), fired
  // == "state is past the op", latch == producer fired, executing states
  // imply the predecessor latches their controller reads.
  {
    std::vector<Lit> parts;
    for (std::size_t c = 0; c < units.size(); ++c) {
      const ControllerModel& cm = net.ctls[c];
      const std::vector<Lit>& bits = net.state[c];
      parts.push_back(lowering::validCode(net.g, encs[c], bits));
      for (std::size_t j = 0; j < cm.opAtPos.size(); ++j) {
        std::vector<Lit> past;
        for (std::size_t st = 0; st < bits.size(); ++st) {
          if (cm.statePos[st] > static_cast<int>(j)) past.push_back(bits[st]);
        }
        parts.push_back(aig::negate(net.g.xorLit(
            fired[static_cast<std::size_t>(cm.opAtPos[j])],
            net.g.orN(past))));
      }
      const std::vector<std::string>& latched = units[c].latchedInputs;
      for (std::size_t st = 0; st < bits.size(); ++st) {
        const int op = cm.completesOp[st];
        if (op < 0) continue;
        for (const int p : table.dataPreds[static_cast<std::size_t>(op)]) {
          const std::string sig =
              fsm::opCompletionSignal(table.names[static_cast<std::size_t>(p)]);
          if (std::find(latched.begin(), latched.end(), sig) == latched.end()) {
            continue;
          }
          parts.push_back(
              net.g.orLit(aig::negate(bits[st]), net.held.at(sig)));
        }
      }
    }
    for (const auto& [sig, lit] : net.held) {
      const auto producer = opOfCco.find(sig);
      if (producer == opOfCco.end()) continue;
      parts.push_back(aig::negate(net.g.xorLit(
          lit, fired[static_cast<std::size_t>(producer->second)])));
    }
    net.inv = net.g.andN(parts);
  }
  return net;
}

/// Controller `c`'s one-hot state at `frame`: "?" or "multi" when the
/// one-hot encoding is broken (MDL001 traces).
std::string stateNameAt(const Network& net, const FrameEval& eval, int frame,
                        std::size_t c) {
  const fsm::Fsm& f = net.oneShot.controllers[c].fsm;
  std::string found;
  int count = 0;
  for (std::size_t st = 0; st < net.state[c].size(); ++st) {
    if (eval(frame, net.state[c][st])) {
      found = f.stateName(static_cast<int>(st));
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
    for (std::size_t c = 0; c < net.ctls.size(); ++c) {
      os << " " << net.oneShot.controllers[c].fsm.name() << "@"
         << stateNameAt(net, eval, f, c);
    }
    std::string pulses;
    for (const auto& [sig, lit] : net.step.pulse) {
      if (eval(f, lit)) pulses += " " + sig;
    }
    if (!pulses.empty()) os << " | pulses" << pulses;
    std::string latched;
    for (const auto& [sig, lit] : net.held) {
      if (eval(f, lit)) latched += " " + sig;
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
