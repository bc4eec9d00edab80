// Static model check of the controller implementations (rules MDL001-MDL007)
// -- no simulation, only graph exploration.
//
// The distributed controllers free-run: each unit FSM wraps from its last
// operation back to its first, and the product's sticky completion latches are
// never cleared, so independent units legitimately pipeline ahead of each
// other between restarts.  The property the paper needs is therefore checked
// *per iteration*: every controller's wrap transition (the one emitting the
// last bound op's CCO pulse) is redirected to an absorbing DONE state, and the
// reachable product of these one-shot controllers models exactly one
// restart-to-restart iteration with cleared latches.  On that product:
//
//   MDL001  the product construction itself gets stuck (a controller has no
//           enabled transition) -- structural deadlock.
//   MDL002  some reachable configuration cannot reach the all-DONE
//           configuration (circular cross-unit wait; livelock in R states).
//   MDL003  iteration balance: every cycle of the explored graph must execute
//           every operation equally often, and the all-DONE configuration must
//           carry the all-ones register-enable count -- each op completes
//           exactly once per iteration (lock-step with the schedule).
//   MDL004  causality: an RE_<op> edge fires although a data predecessor has
//           completed no more often than the op itself.
//   MDL005  per-unit order: an RE_<op> edge fires before the unit's previous
//           bound operation has completed.
//   MDL006  the distributed product and the CENT-SYNC baseline disagree on
//           the per-iteration register-enable event set.
//   MDL007  the reachable-state bound was exceeded; the check is incomplete
//           (warning -- the flow gate still passes).
//
// The same event-count (phi-potential) analysis runs over the CENT-SYNC
// transition graph, so both controller styles are verified statically.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "sched/scheduled_dfg.hpp"
#include "verify/diagnostic.hpp"

namespace tauhls::verify {

struct ModelCheckOptions {
  /// Bound on reachable product configurations; exceeding it degrades the
  /// check to an MDL007 warning instead of a verdict.
  std::size_t maxStates = 200000;
};

/// Model-check the distributed controllers against the scheduled DFG and the
/// CENT-SYNC baseline (MDL001-MDL007).  Appends to `report`.
void modelCheckControllers(const fsm::DistributedControlUnit& dcu,
                           const sched::ScheduledDfg& s,
                           const fsm::Fsm& centSync, Report& report,
                           const ModelCheckOptions& options = {});

/// Distributed-side check only (MDL001-MDL005, MDL007), for flows that did
/// not build the baseline.
void modelCheckDistributed(const fsm::DistributedControlUnit& dcu,
                           const sched::ScheduledDfg& s, Report& report,
                           const ModelCheckOptions& options = {});

// Internals shared with the symbolic engine (symbolic_check.cpp): both
// engines must agree on the op index space, the one-shot rewrite, and the
// event-set analysis used for MDL006.
namespace detail {

/// Operation index space shared by both controller styles: op names, the
/// RE_<op> signal of each, data predecessors and the unit-sequence
/// predecessor (both as op indices).
struct OpTable {
  std::vector<std::string> names;
  std::map<std::string, int> indexOfRe;
  std::vector<std::vector<int>> dataPreds;
  std::vector<int> unitPred;  ///< -1 when first on its unit
};

OpTable buildOpTable(const sched::ScheduledDfg& s);

/// The network with every unit controller's wrap transitions (the ones
/// emitting the register-enable of its last bound op) redirected to an
/// absorbing DONE state, turning the free-running machines into
/// single-iteration machines.
fsm::DistributedControlUnit oneShotNetwork(
    const fsm::DistributedControlUnit& dcu, const sched::ScheduledDfg& s);

/// Result of the phi-potential sweep over one machine's transition graph.
struct EventAnalysis {
  std::vector<bool> reachable;
  /// Per reachable state, how often each op's RE fired on the tree path from
  /// the initial state.
  std::vector<std::vector<long long>> phi;
  std::set<int> alphabet;  ///< op indices whose RE fires on a reachable edge
  bool balanced = true;    ///< no MDL003 inconsistency found
};

/// BFS the reachable transition graph counting RE events (MDL003-MDL005).
EventAnalysis analyzeEvents(const fsm::Fsm& m, const OpTable& table,
                            const std::string& artifact, Report& report);

std::string joinNames(const OpTable& table, const std::set<int>& ops);

}  // namespace detail

}  // namespace tauhls::verify
