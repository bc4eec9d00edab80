// Symbolic equivalence checking (EQV rules): translation validation of the
// controller synthesis back end.
//
// Per controller, four representations of the same combinational function
// family (next-state bits ns0..ns{n-1} and the declared output signals) are
// lowered into one shared And-Inverter Graph:
//
//   spec     -- the FSM's transitions under the chosen state encoding
//   cover    -- the minimized two-level covers (logic/minimize)
//   netlist  -- the shared-AND-plane gate netlist (netlist/build)
//   rtl      -- the emitted Verilog, reparsed by vsim and evaluated
//               symbolically (the always @* block executed over AIG literals)
//
// Adjacent pairs are proven equivalent with a SAT miter (aig/cec.hpp),
// constrained to valid state codes: unused codes are don't-cares that the
// minimizer exploits, so only the reachable-code subspace must agree.  This
// replaces the truth-table/cofactor machinery, which explodes past ~20
// inputs; the SAT path never enumerates assignments.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "netlist/build.hpp"
#include "synth/encoding.hpp"
#include "verify/diagnostic.hpp"

namespace tauhls::verify {

/// Which proof engine compareFns runs on.  Both produce identical verdicts
/// (the incremental engine is exercised against the naive one on every
/// benchmark in tests/test_equiv.cpp); they differ only in speed and in the
/// work counters they report.
enum class EquivEngine {
  /// A fresh SAT solver and Tseitin encoding per candidate pair
  /// (aig::proveEquivalent) -- the reference path.
  Naive,
  /// Bit-parallel simulation prefilter + one shared incremental solver per
  /// controller (aig::IncrementalCec) with counterexample-directed
  /// refinement: mismatching pairs are discharged by 64-pattern word
  /// simulation before any CNF exists, proven-equal pairs are memoized, and
  /// every SAT query reuses the previous queries' encoded cones and learned
  /// clauses.
  Incremental,
};

struct EquivOptions {
  synth::EncodingStyle style = synth::EncodingStyle::Binary;
  /// SAT conflict budget per miter; exceeded -> EQV005 (unproven), never a
  /// false claim either way.
  std::uint64_t maxConflicts = 200000;
  EquivEngine engine = EquivEngine::Incremental;
};

/// Work counters, surfaced in the pipeline trace and, per rule, in the
/// lint JSON ("satCost", schema v3).
struct EquivStats {
  int controllers = 0;
  int functionsCompared = 0;
  std::uint64_t satConflicts = 0;
  /// Solver/simulation work split by rule code (EQV001..EQV004).
  std::map<std::string, RuleCost> ruleCost;

  EquivStats& operator+=(const EquivStats& o) {
    controllers += o.controllers;
    functionsCompared += o.functionsCompared;
    satConflicts += o.satConflicts;
    for (const auto& [code, cost] : o.ruleCost) ruleCost[code] += cost;
    return *this;
  }
};

/// Full chain for one controller: spec = cover (EQV001), cover = netlist
/// (EQV002), netlist = reparsed RTL (EQV003); EQV006 info when all clean.
EquivStats checkControllerChain(const fsm::Fsm& fsm, Report& report,
                                const EquivOptions& options = {});

/// Cover-vs-netlist only, against a caller-supplied netlist (EQV002).
/// Exposed for mutation testing: a tampered netlist must be caught here.
void checkControllerNetlist(const fsm::Fsm& fsm,
                            const netlist::ControllerNetlist& cn,
                            Report& report, const EquivOptions& options = {});

/// Spec-vs-RTL only, against caller-supplied Verilog source containing
/// `moduleName` (EQV003).  Exposed for mutation testing of the emitter.
void checkControllerRtl(const fsm::Fsm& fsm, const std::string& source,
                        const std::string& moduleName, Report& report,
                        const EquivOptions& options = {});

/// Check the completion-latch primitive inside `packageSource` against the
/// latch the network models use (lowering::latchLevel / latchNext, cleared
/// by rst | restart): level = held | pulse, held' = !rst & !restart &
/// (pulse | held)  (EQV004).
void checkCompletionLatch(const std::string& packageSource, Report& report,
                          EquivStats* stats = nullptr);

/// Whole distributed unit: per-controller chains plus the completion latch
/// of the emitted package.  Controllers are checked as a parallel portfolio
/// on the global thread pool (each chain owns its context, so chains are
/// independent); reports and stats are merged in controller order, making
/// the result identical for every thread count.
Report checkEquivalence(const fsm::DistributedControlUnit& dcu,
                        const EquivOptions& options = {},
                        EquivStats* stats = nullptr);

/// The proving kernel in isolation, for benchmarking the engines against
/// each other (bench/kernel_speed.cpp).  Construction performs all the
/// engine-independent work once -- lowering every representation of every
/// controller into its shared AIG and pairing the function families -- so
/// prove() times exactly what the engines differ in: the per-pair
/// equivalence proofs.  checkEquivalence folds this same work into its
/// end-to-end wall clock, where synthesis and RTL reparsing dominate at
/// Table 2 scale and mask the kernel.
class EquivWorkload {
 public:
  explicit EquivWorkload(const fsm::DistributedControlUnit& dcu,
                         const EquivOptions& options = {});
  ~EquivWorkload();
  EquivWorkload(const EquivWorkload&) = delete;
  EquivWorkload& operator=(const EquivWorkload&) = delete;

  /// Engine-independent proof outcomes: both engines must produce the same
  /// triple on the same workload (enforced by the bench's self-check and by
  /// tests/test_equiv.cpp).
  struct Verdicts {
    std::uint64_t proven = 0;   ///< equivalent under the valid-state constraint
    std::uint64_t refuted = 0;  ///< mismatch witnessed
    std::uint64_t unknown = 0;  ///< conflict budget exhausted

    bool operator==(const Verdicts& o) const {
      return proven == o.proven && refuted == o.refuted &&
             unknown == o.unknown;
    }
  };

  /// Run every prepared pair through the engine in `options.engine`.  The
  /// work counters in `stats` are engine-specific; the verdicts are not.
  Verdicts prove(const EquivOptions& options, EquivStats* stats = nullptr);

  int pairs() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// What the pipeline's `equiv` pass materializes (Artifact::Equivalence):
/// the diagnostics plus the SAT work counters for the trace.
struct EquivalenceArtifact {
  Report report;
  EquivStats stats;
};

}  // namespace tauhls::verify
