// X-propagation / reset-robustness analysis of the distributed controller
// network (rules XPR001-XPR004).
//
// The network (every unit controller, one completion latch per consumed
// signal, wired exactly as rtl::emitDistributedTop wires them) is lowered to
// a sequential AIG whose registers are the encoded controller state bits and
// the latch `held` bits, around the cycle cones of lowering::networkStep (the
// lowering the symbolic model check proves its MDL properties on).  A
// bit-parallel ternary evaluator (aig/ternary.hpp) then simulates 64
// power-on instances per word from the adversarial *all-X* initial state
// through the reset protocol:
//
//   cycle 0..r-1   rst = 1, restart = 0       (r searched 1..maxCycles)
//   cycle r..      rst = 0; one restart pulse two cycles after release
//
// Lane 0 of word 0 drives every completion input X as well; because ternary
// evaluation is monotone in the information order, that single lane subsumes
// *every* concrete power-on state and every input sequence: if its registers
// are determinate at cycle r, every physical device's are.  The remaining
// lanes run concrete pseudo-random inputs and additionally prove that no X
// ever re-enters a register, pulse or visible output after the reset window.
//
//   XPR001  a controller state bit or completion latch is still (or again)
//           X after the reset window -- model-level, per controller/latch,
//           with a per-cycle 0/1/X waveform of the offending cone.
//   XPR002  the emitted RTL disagrees with the network model under ternary
//           replay: the package, lowered once to a sequential AIG
//           (lowering::lowerPackage), runs on the same ternary evaluator,
//           and a mutually-determinate bit differs, or the RTL holds X
//           where the model proved determinacy, or the RTL never settles.
//   XPR003  the hierarchical region sequencer or a ST_/DN_ handshake latch
//           stays X across a region boundary (composed flow only).
//   XPR004  info summary with the proven reset depth and instance count.
//
// All verdicts are bit-identical across thread counts: words are simulated
// independently and merged in index order.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fsm/distributed.hpp"
#include "fsm/hierarchical.hpp"
#include "synth/encoding.hpp"
#include "verify/dcs_check.hpp"
#include "verify/diagnostic.hpp"

namespace tauhls::verify {

struct XprOptions {
  synth::EncodingStyle style = synth::EncodingStyle::Binary;
  /// Reset-depth search budget: the largest r tried before giving up.  Also
  /// the number of post-release cycles every instance is watched for.
  int maxCycles = 16;
  /// 64-lane words of concrete power-on instances (word 0 lane 0 is always
  /// the all-X proof lane).
  int words = 4;

  // --- fault-injection seams (mutation tests only; empty in production) ---
  /// Completion latches whose model drops the rst arc (held <= ~restart &
  /// (pulse | held)): the latch never drains its power-on X.
  std::set<std::string> latchesWithoutReset;
  /// Controllers whose model drops the state reset mux entirely.
  std::set<std::string> controllersWithoutStateReset;
  /// Hierarchical DN_<path> handshake latches whose model drops the rst arc.
  std::set<std::string> doneLatchesWithoutInit;
  /// Replacement RTL package for the XPR002 ternary replay; must define the
  /// top module `tauhls_xprop_top`.  Empty = emit from the network.
  std::string rtlOverride;
};

/// Everything one network's X check measured (cacheable, serializable).
struct XpropStats {
  std::string artifact;
  std::size_t controllers = 0;
  std::size_t stateBits = 0;  ///< model registers: encoded state bits
  std::size_t latchBits = 0;  ///< model registers: completion latch bits
  int resetDepth = -1;        ///< r that drained every X; -1 when none did
  std::uint64_t instances = 0;   ///< concrete power-on instances simulated
  std::uint64_t gateEvals = 0;   ///< ternary AND-word evaluations
  std::uint64_t rtlCycles = 0;   ///< emitted-RTL cycles replayed (XPR002)
  std::vector<XpropPropertyStat> properties;  ///< one row per rule that ran

  /// Per-rule cost rows for the pipeline trace (queries = instances).
  std::map<std::string, RuleCost> ruleCost() const;

  XpropStats& operator+=(const XpropStats& o);

  friend bool operator==(const XpropStats&, const XpropStats&) = default;
};

/// Reset robustness of one flat controller network: XPR001 (model-level
/// ternary proof over all power-on states) then XPR002 (model vs emitted
/// RTL ternary agreement).  Diagnostics anchor to `artifact` ("dcu <name>"
/// in the flat flow, "leaf <path> of <name>" under the composition).
XpropStats checkXprop(const fsm::DistributedControlUnit& dcu,
                      const std::string& artifact, Report& report,
                      const XprOptions& options = {});

/// X-safety of the composed hierarchical control: the region sequencer and
/// its ST_/DN_ handshake latches under free DN_/SEL inputs (XPR003), plus
/// every leaf network re-checked per XPR001/XPR002 re-anchored to its path.
XpropStats checkXpropHierarchical(const fsm::HierarchicalControlUnit& hcu,
                                  const std::string& artifact, Report& report,
                                  const XprOptions& options = {});

/// The demand-cached pipeline artifact behind `tauhlsc lint --xprop`: the
/// X-propagation and don't-care-soundness results of one network.
struct XCheckArtifact {
  Report report;
  XpropStats xprop;
  DcsStats dcs;

  friend bool operator==(const XCheckArtifact&, const XCheckArtifact&) = default;
};

}  // namespace tauhls::verify
