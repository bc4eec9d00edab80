// Symbolic model check of the distributed controller network: BMC +
// k-induction over an AIG transition relation (rules MDL001-MDL006, MDL008).
//
// The synchronous product of all one-shot unit controllers (wrap transitions
// redirected to absorbing DONE states, exactly as in model_check.cpp) is
// encoded as a sequential circuit over a template AIG: one-hot state bits per
// controller, one sticky bit per latched completion signal (as the emitted
// RTL has one latch per wire), one fired-monitor bit per operation, and the
// unit completion inputs C_T as free per-cycle variables.  The transition
// cones are lowering::networkStep's, the network cycle the X-propagation
// check ties to the emitted RTL, so both engines explore the same behaviour
// and must agree on every verdict.
//
// The MDL001-MDL005 analogues are checked as safety properties:
//
//   MDL001  some controller has zero or several enabled transitions, or the
//           pulse fixpoint fails to converge within its rounds (the last two
//           differ) -- structural deadlock / nondeterminism.
//   MDL002  a non-done configuration repeats itself under all-true completion
//           inputs (circular cross-unit wait; livelock in R states).
//   MDL003  lock-step: an operation's RE fires twice in one iteration, or
//           the all-DONE configuration is reached with an op never fired.
//   MDL004  causality: RE_<op> fires although a data predecessor has not.
//   MDL005  per-unit order: RE_<op> fires before the unit's previous bound op.
//
// The properties run through the shared BMC + k-induction engine
// (verify/induction.hpp: one solver per network, simple-path constraints)
// with a structural strengthening invariant (valid one-hot codes, fired ==
// state position, latch == producer fired, executing states imply
// predecessor latches).  Properties that close get a PROVED verdict with the
// induction depth; failures get a concrete counterexample decoded back to
// per-cycle RE / S_i / S_i' / R_i waveforms in the diagnostic message.  The
// strengthening invariant is itself base-checked from the initial state and
// never assumed by BMC, so counterexamples stay sound on mutated controllers
// that break it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "sched/scheduled_dfg.hpp"
#include "verify/diagnostic.hpp"
#include "verify/induction.hpp"

namespace tauhls::verify {

/// Outcome and SAT cost of one safety property on one controller network.
struct SymbolicProperty {
  std::string rule;  ///< MDL001..MDL005
  PropertyVerdict verdict = PropertyVerdict::Unknown;
  int depthReached = -1;  ///< deepest BMC frame proven violation-free
  int inductionK = 0;     ///< k that closed the property (0 unless PROVED)
  int cexLength = 0;      ///< cycles in the counterexample (0 unless CEX)
  RuleCost cost;          ///< SAT work attributed to this property

  friend bool operator==(const SymbolicProperty&,
                         const SymbolicProperty&) = default;
};

/// Engine-level statistics of one network's symbolic check.
struct SymbolicStats {
  std::string artifact;  ///< e.g. "product diffeq"
  std::size_t controllers = 0;
  std::size_t stateBits = 0;      ///< state vars (one-hot + latches + fired)
  std::size_t templateNodes = 0;  ///< AIG nodes after template construction
  bool invariantHolds = true;     ///< base check of the strengthening invariant
  RuleCost invariantCost;         ///< SAT work of invariant base queries
  std::vector<SymbolicProperty> properties;

  /// Per-rule cost map for the lint JSON / pipeline trace; invariant work is
  /// attributed to the MDL008 summary rule.
  std::map<std::string, RuleCost> ruleCost() const;
  /// Flattened per-property rows for renderJson (lint schema v4).
  std::vector<SymbolicPropertyStat> jsonStats() const;
};

struct SymbolicCheckOptions {
  /// BMC depth / induction-k budget; open properties degrade to UNKNOWN.
  int maxDepth = 30;
  /// Conflict budget per SAT query; exceeding it degrades to UNKNOWN.
  std::uint64_t maxConflicts = 200000;
};

/// Everything the symbolic pass produces (cacheable pipeline artifact).
struct SymbolicArtifact {
  Report report;
  SymbolicStats stats;

  friend bool operator==(const SymbolicArtifact&,
                         const SymbolicArtifact&) = default;
};

inline bool operator==(const SymbolicStats& a, const SymbolicStats& b) {
  return a.artifact == b.artifact && a.controllers == b.controllers &&
         a.stateBits == b.stateBits && a.templateNodes == b.templateNodes &&
         a.invariantHolds == b.invariantHolds && a.properties == b.properties;
}

/// Symbolically model-check the distributed controllers.  When `centSync` is
/// non-null the CENT-SYNC baseline is swept with the same phi-potential
/// analysis as the explicit engine and compared per MDL006 (valid once the
/// lock-step and progress properties are PROVED).  Appends counterexamples
/// and the MDL008 summary to the returned report.
SymbolicArtifact symbolicModelCheck(const fsm::DistributedControlUnit& dcu,
                                    const sched::ScheduledDfg& s,
                                    const fsm::Fsm* centSync,
                                    const SymbolicCheckOptions& options = {});

}  // namespace tauhls::verify
