#include "verify/model_check.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "fsm/product.hpp"
#include "fsm/signal.hpp"

namespace tauhls::verify {

using dfg::NodeId;

namespace detail {

OpTable buildOpTable(const sched::ScheduledDfg& s) {
  OpTable t;
  std::map<NodeId, int> indexOfNode;
  for (NodeId v : s.graph.opIds()) {
    indexOfNode[v] = static_cast<int>(t.names.size());
    t.names.push_back(s.graph.node(v).name);
    t.indexOfRe[fsm::registerEnableSignal(s.graph.node(v).name)] =
        static_cast<int>(t.names.size()) - 1;
  }
  t.dataPreds.resize(t.names.size());
  t.unitPred.assign(t.names.size(), -1);
  for (NodeId v : s.graph.opIds()) {
    for (NodeId p : s.graph.dependencePredecessors(v)) {
      if (s.graph.isOp(p)) t.dataPreds[indexOfNode.at(v)].push_back(indexOfNode.at(p));
    }
  }
  for (int u = 0; u < static_cast<int>(s.binding.numUnits()); ++u) {
    const std::vector<NodeId>& seq = s.binding.sequenceOf(u);
    for (std::size_t i = 1; i < seq.size(); ++i) {
      const auto cur = indexOfNode.find(seq[i]);
      const auto prev = indexOfNode.find(seq[i - 1]);
      if (cur != indexOfNode.end() && prev != indexOfNode.end()) {
        t.unitPred[cur->second] = prev->second;
      }
    }
  }
  return t;
}

/// Wraps are keyed on the register-enable of the last bound op, which fires
/// exactly on the completing transitions of that op and (unlike its CCO,
/// which signal pruning may drop) always survives optimization.
fsm::DistributedControlUnit oneShotNetwork(
    const fsm::DistributedControlUnit& dcu, const sched::ScheduledDfg& s) {
  fsm::DistributedControlUnit oneShot = dcu;
  for (fsm::UnitController& ctl : oneShot.controllers) {
    TAUHLS_CHECK(!ctl.ops.empty(), "controller binds no operations");
    const fsm::Fsm& src = ctl.fsm;
    const std::string lastRe =
        fsm::registerEnableSignal(s.graph.node(ctl.ops.back()).name);
    fsm::Fsm out("ONESHOT_" + src.name());
    for (int i = 0; i < static_cast<int>(src.numStates()); ++i) {
      out.addState(src.stateName(i));
    }
    const int done = out.addState("DONE");
    for (const std::string& in : src.inputs()) out.addInput(in);
    for (const std::string& sig : src.outputs()) out.addOutput(sig);
    for (const fsm::Transition& t : src.transitions()) {
      const bool wraps = std::find(t.outputs.begin(), t.outputs.end(),
                                   lastRe) != t.outputs.end();
      out.addTransition(t.from, wraps ? done : t.to, t.guard, t.outputs);
    }
    out.addTransition(done, done, fsm::Guard::always(), {});
    out.setInitial(src.initial());
    ctl.fsm = std::move(out);
  }
  return oneShot;
}

/// BFS the reachable transition graph counting RE events.  Checks every
/// non-tree edge for uniform cycle weight (MDL003) and every RE-emitting edge
/// for causality (MDL004) and unit order (MDL005).
EventAnalysis analyzeEvents(const fsm::Fsm& m, const OpTable& table,
                            const std::string& artifact, Report& report) {
  const std::size_t numOps = table.names.size();
  EventAnalysis a;
  a.reachable.assign(m.numStates(), false);
  a.phi.assign(m.numStates(), {});

  // De-duplicate diagnostics: one MDL003 per artifact, one MDL004 per
  // (op, pred) pair, one MDL005 per op -- a single defect otherwise repeats
  // on every configuration that exposes it.
  bool reportedBalance = false;
  std::set<std::pair<int, int>> reportedCausality;
  std::set<int> reportedOrder;

  auto eventsOf = [&](const fsm::Transition& t) {
    std::vector<int> ev;
    for (const std::string& out : t.outputs) {
      const auto it = table.indexOfRe.find(out);
      if (it != table.indexOfRe.end()) ev.push_back(it->second);
    }
    return ev;
  };

  std::queue<int> frontier;
  const int init = m.initial();
  a.reachable[static_cast<std::size_t>(init)] = true;
  a.phi[static_cast<std::size_t>(init)].assign(numOps, 0);
  frontier.push(init);
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop();
    const std::vector<long long>& phiU = a.phi[static_cast<std::size_t>(u)];
    for (const fsm::Transition* t : m.transitionsFrom(u)) {
      if (t->guard.isNever()) continue;
      const std::vector<int> events = eventsOf(*t);
      for (const int c : events) {
        a.alphabet.insert(c);
        for (const int p : table.dataPreds[static_cast<std::size_t>(c)]) {
          if (phiU[static_cast<std::size_t>(p)] <
                  phiU[static_cast<std::size_t>(c)] + 1 &&
              reportedCausality.insert({c, p}).second) {
            report.add("MDL004", artifact, table.names[static_cast<std::size_t>(c)],
                       "completes in " + m.stateName(u) +
                           " although data predecessor " +
                           table.names[static_cast<std::size_t>(p)] +
                           " has not completed");
          }
        }
        const int q = table.unitPred[static_cast<std::size_t>(c)];
        if (q >= 0 &&
            phiU[static_cast<std::size_t>(q)] <
                phiU[static_cast<std::size_t>(c)] + 1 &&
            reportedOrder.insert(c).second) {
          report.add("MDL005", artifact, table.names[static_cast<std::size_t>(c)],
                     "completes in " + m.stateName(u) +
                         " before its unit's previous operation " +
                         table.names[static_cast<std::size_t>(q)]);
        }
      }
      std::vector<long long> cand = phiU;
      for (const int c : events) ++cand[static_cast<std::size_t>(c)];
      const std::size_t v = static_cast<std::size_t>(t->to);
      if (!a.reachable[v]) {
        a.reachable[v] = true;
        a.phi[v] = std::move(cand);
        frontier.push(t->to);
      } else if (numOps > 0) {
        // Non-tree edge: the closed cycle's event count is cand - phi[v] and
        // must be a uniform k*(1,..,1) -- every op executed equally often.
        const long long d0 = cand[0] - a.phi[v][0];
        for (std::size_t i = 1; i < numOps; ++i) {
          if (cand[i] - a.phi[v][i] != d0) {
            a.balanced = false;
            if (!reportedBalance) {
              reportedBalance = true;
              report.add("MDL003", artifact, m.stateName(t->to),
                         "a reachable cycle executes " + table.names[i] + " " +
                             std::to_string(cand[i] - a.phi[v][i]) +
                             " times but " + table.names[0] + " " +
                             std::to_string(d0) + " times");
            }
            break;
          }
        }
      }
    }
  }
  return a;
}

std::string joinNames(const OpTable& table, const std::set<int>& ops) {
  std::string out;
  for (const int i : ops) {
    if (!out.empty()) out += ", ";
    out += table.names[static_cast<std::size_t>(i)];
  }
  return out;
}

}  // namespace detail

namespace {

using detail::EventAnalysis;
using detail::OpTable;
using detail::analyzeEvents;
using detail::buildOpTable;
using detail::joinNames;
using detail::oneShotNetwork;

/// Build the one-shot product and run all distributed-side checks.  Returns
/// the per-iteration RE alphabet, or nullopt when the product could not be
/// explored (bound exceeded / stuck).
std::optional<std::set<int>> checkDistributedSide(
    const fsm::DistributedControlUnit& dcu, const sched::ScheduledDfg& s,
    const OpTable& table, Report& report, const ModelCheckOptions& options) {
  const std::string artifact = "product " + s.graph.name();

  const fsm::DistributedControlUnit oneShot = oneShotNetwork(dcu, s);

  fsm::ProductInfo info;
  std::optional<fsm::Fsm> product;
  try {
    fsm::ProductOptions popt;
    popt.maxStates = options.maxStates;
    product.emplace(fsm::buildProduct(oneShot, popt, &info));
  } catch (const Error& e) {
    const std::string what = e.what();
    if (what.find("state bound exceeded") != std::string::npos) {
      report.add("MDL007", artifact, "",
                 "reachable configurations exceed the bound " +
                     std::to_string(options.maxStates) + " (" +
                     std::to_string(info.controllerStates.size()) +
                     " explored); model check skipped -- raise --max-states "
                     "or use --model-check symbolic");
    } else {
      report.add("MDL001", artifact, "", "product exploration failed: " + what);
    }
    return std::nullopt;
  }

  const EventAnalysis a = analyzeEvents(*product, table, artifact, report);

  // The completion configurations: every controller in its DONE state.
  std::vector<int> doneState(oneShot.controllers.size());
  for (std::size_t c = 0; c < oneShot.controllers.size(); ++c) {
    doneState[c] = oneShot.controllers[c].fsm.findState("DONE");
    TAUHLS_ASSERT(doneState[c] >= 0, "one-shot controller lost its DONE state");
  }
  std::vector<int> doneConfigs;
  for (std::size_t ps = 0; ps < info.controllerStates.size(); ++ps) {
    bool allDone = true;
    for (std::size_t c = 0; c < doneState.size(); ++c) {
      if (info.controllerStates[ps][c] != doneState[c]) {
        allDone = false;
        break;
      }
    }
    if (allDone && a.reachable[ps]) doneConfigs.push_back(static_cast<int>(ps));
  }

  // MDL002: every reachable configuration must reach a completion
  // configuration, or some unit is caught in a circular wait.
  std::vector<std::vector<int>> reverse(product->numStates());
  for (const fsm::Transition& t : product->transitions()) {
    if (!t.guard.isNever()) reverse[static_cast<std::size_t>(t.to)].push_back(t.from);
  }
  std::vector<bool> canFinish(product->numStates(), false);
  std::queue<int> frontier;
  for (const int ps : doneConfigs) {
    canFinish[static_cast<std::size_t>(ps)] = true;
    frontier.push(ps);
  }
  while (!frontier.empty()) {
    const int v = frontier.front();
    frontier.pop();
    for (const int u : reverse[static_cast<std::size_t>(v)]) {
      if (!canFinish[static_cast<std::size_t>(u)]) {
        canFinish[static_cast<std::size_t>(u)] = true;
        frontier.push(u);
      }
    }
  }
  if (doneConfigs.empty()) {
    report.add("MDL002", artifact, "",
               "no reachable configuration completes the iteration");
  } else {
    std::size_t stuckCount = 0;
    std::string witness;
    for (std::size_t ps = 0; ps < product->numStates(); ++ps) {
      if (a.reachable[ps] && !canFinish[ps]) {
        if (stuckCount == 0) witness = product->stateName(static_cast<int>(ps));
        ++stuckCount;
      }
    }
    if (stuckCount > 0) {
      report.add("MDL002", artifact, witness,
                 std::to_string(stuckCount) +
                     " reachable configuration(s) cannot complete the "
                     "iteration (circular wait)");
    }
  }

  // MDL003 (balance at completion): one iteration executes every op once.
  if (a.balanced) {
    for (const int ps : doneConfigs) {
      const std::vector<long long>& phi = a.phi[static_cast<std::size_t>(ps)];
      for (std::size_t i = 0; i < phi.size(); ++i) {
        if (phi[i] != 1) {
          report.add("MDL003", artifact, product->stateName(ps),
                     "one iteration executes " + table.names[i] + " " +
                         std::to_string(phi[i]) + " times instead of once");
          break;
        }
      }
    }
  }
  return a.alphabet;
}

}  // namespace

void modelCheckDistributed(const fsm::DistributedControlUnit& dcu,
                           const sched::ScheduledDfg& s, Report& report,
                           const ModelCheckOptions& options) {
  const OpTable table = buildOpTable(s);
  checkDistributedSide(dcu, s, table, report, options);
}

void modelCheckControllers(const fsm::DistributedControlUnit& dcu,
                           const sched::ScheduledDfg& s,
                           const fsm::Fsm& centSync, Report& report,
                           const ModelCheckOptions& options) {
  const OpTable table = buildOpTable(s);
  const std::optional<std::set<int>> productAlphabet =
      checkDistributedSide(dcu, s, table, report, options);

  // The CENT-SYNC machine wraps into its next iteration; the phi analysis
  // handles that directly (the wrap edges close uniform-weight cycles).
  const EventAnalysis cent =
      analyzeEvents(centSync, table, "fsm " + centSync.name(), report);

  if (productAlphabet.has_value()) {
    std::set<int> onlyDistributed;
    std::set<int> onlyCentral;
    std::set_difference(productAlphabet->begin(), productAlphabet->end(),
                        cent.alphabet.begin(), cent.alphabet.end(),
                        std::inserter(onlyDistributed, onlyDistributed.end()));
    std::set_difference(cent.alphabet.begin(), cent.alphabet.end(),
                        productAlphabet->begin(), productAlphabet->end(),
                        std::inserter(onlyCentral, onlyCentral.end()));
    if (!onlyDistributed.empty() || !onlyCentral.empty()) {
      std::string msg = "per-iteration register-enable sets differ:";
      if (!onlyDistributed.empty()) {
        msg += " only distributed: " + joinNames(table, onlyDistributed) + ";";
      }
      if (!onlyCentral.empty()) {
        msg += " only cent_sync: " + joinNames(table, onlyCentral) + ";";
      }
      msg.pop_back();
      report.add("MDL006", "product " + s.graph.name(), "", msg);
    }
  }
}

}  // namespace tauhls::verify
