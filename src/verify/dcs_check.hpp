// Don't-care soundness of the two-level minimization (rules DCS001-DCS003).
//
// synth::synthesize marks every truth-table row whose state-bit pattern
// decodes to no state -- or to a state unreachable from the initial state --
// as a don't-care, and the minimizer is free to fill those rows however it
// shrinks the cover.  That is only sound if the machine can never *occupy*
// such a row.  This pass proves it, per controller and per function:
//
//   DCS001  the minimized cover differs from the FSM specification on a
//           *care* row (reachable state x any input) -- the minimizer
//           changed observable behaviour, not just don't-cares.  Checked by
//           SAT equivalence under the care-set constraint (aig/cec.hpp),
//           with the differing row decoded back to state/input names.
//   DCS002  a don't-care row is reachable in the state space induced by the
//           *implemented* next-state covers: BMC from the encoded initial
//           state finds a concrete input sequence driving the registers
//           onto a row the minimizer assumed impossible, or k-induction
//           proves no such sequence exists (the BMC + k-induction engine
//           of verify/induction.hpp).  When DCS001 holds, the care set is
//           inductive and the proof closes at k = 1.
//   DCS003  info summary counting the functions whose cover actually
//           exploits don't-cares (differ globally, agree on the care set).
//
// The care predicate here is *textually* the one synthesize() minimized
// against (synth::reachableStates), so a PROVED verdict certifies exactly
// the assumption the area numbers rest on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "synth/encoding.hpp"
#include "synth/extract.hpp"
#include "verify/diagnostic.hpp"

namespace tauhls::verify {

struct DcsOptions {
  synth::EncodingStyle style = synth::EncodingStyle::Binary;
  /// BMC depth / induction-k budget for DCS002.
  int maxDepth = 16;
  /// Conflict budget per SAT query; exceeding it degrades to UNKNOWN.
  std::uint64_t maxConflicts = 100000;
  /// Fault-injection seam: replacement minimized covers per FSM name (the
  /// don't-care-abusing-minimizer mutation); empty in production runs.
  std::map<std::string, synth::SynthesizedFsm> coverOverrides;
};

/// Everything one network's DCS check measured (cacheable, serializable).
struct DcsStats {
  std::string artifact;
  std::size_t controllers = 0;
  std::uint64_t functionsChecked = 0;  ///< next-state bits + outputs
  std::uint64_t dcFunctions = 0;  ///< covers that exploit a don't-care row
  std::vector<XpropPropertyStat> properties;  ///< DCS001..DCS003 rows

  /// Per-rule SAT cost rows for the pipeline trace.
  std::map<std::string, RuleCost> ruleCost() const;

  DcsStats& operator+=(const DcsStats& o);

  friend bool operator==(const DcsStats&, const DcsStats&) = default;
};

/// Don't-care soundness of one FSM's minimized covers (the building block;
/// also used on the hierarchical region sequencer).
DcsStats checkDcsFsm(const fsm::Fsm& fsm, const std::string& artifact,
                     Report& report, const DcsOptions& options = {});

/// Don't-care soundness of every controller of one network; controllers run
/// concurrently and merge in index order, so reports are thread-count
/// independent.
DcsStats checkDcs(const fsm::DistributedControlUnit& dcu,
                  const std::string& artifact, Report& report,
                  const DcsOptions& options = {});

}  // namespace tauhls::verify
