// Shared AIG lowerings of one controller's four representations (FSM spec,
// minimized covers, gate netlist, reparsed emitted RTL), factored out of the
// equivalence checker so the X-propagation and don't-care-soundness passes
// reason over the *same* cones the equivalence proofs certify.  The same
// SymbolicEval also lowers a whole emitted package (lowerPackage), which
// the X-propagation RTL replay simulates.
//
// The FSM lowering itself (stateMatch, guardLit, fsmFunctions) works over a
// caller's graph, state bits and input resolver; its network clock cycle
// (networkStep) is the transition relation of both the X-propagation network
// model and the symbolic model check.
// The representation functions share a ControllerContext: inputs are the
// encoded state bits (state0..state{n-1}) followed by the FSM's declared
// input signals.  Every function family is returned ns0..ns{n-1} first,
// then the declared outputs (FnMap order).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cec.hpp"
#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "logic/cover.hpp"
#include "netlist/netlist.hpp"
#include "synth/encoding.hpp"
#include "synth/extract.hpp"
#include "vsim/ast.hpp"
#include "vsim/elaborate.hpp"

namespace tauhls::verify::lowering {

/// Ordered function family of one representation: ns0..ns{n-1} first, then
/// the FSM's declared outputs.
using FnMap = std::vector<std::pair<std::string, aig::Lit>>;

/// Resolves one FSM input signal to its literal.  Resolvers may build the
/// literal on first use; guardLit asks only for the signals a guard reads.
using InputResolver = std::function<aig::Lit(const std::string&)>;

/// state == the code of state id `s` over `stateBits` (LSB first).
aig::Lit stateMatch(aig::Aig& g, const synth::Encoding& enc,
                    const std::vector<aig::Lit>& stateBits, int s);

/// The state bits hold the code of some state (the OR of every stateMatch).
aig::Lit validCode(aig::Aig& g, const synth::Encoding& enc,
                   const std::vector<aig::Lit>& stateBits);

/// The guard's sum-of-products over the resolved input literals.
aig::Lit guardLit(aig::Aig& g, const fsm::Guard& guard,
                  const InputResolver& inputOf);

/// The FSM's next-state bits and outputs (FnMap order) over a caller's graph,
/// state bits and inputs: a transition fires when its source state matches
/// and its guard holds.  Undecodable codes step to all-zero, outputs to 0.
FnMap fsmFunctions(aig::Aig& g, const fsm::Fsm& f, const synth::Encoding& enc,
                   const std::vector<aig::Lit>& stateBits,
                   const InputResolver& inputOf);

/// fsmFunctions plus the emitted RTL's default case arm: an undecodable
/// state code steps to the initial state, as the emitted machine does.
FnMap rtlFsmFunctions(aig::Aig& g, const fsm::Fsm& f,
                      const synth::Encoding& enc,
                      const std::vector<aig::Lit>& stateBits,
                      const InputResolver& inputOf);

/// A completion latch as the emitted tauhls_completion_latch computes it:
/// the level its consumers read, and its held bit one cycle on (set by the
/// pulse, cleared by `clear`).
aig::Lit latchLevel(aig::Aig& g, aig::Lit held, aig::Lit pulse);
aig::Lit latchNext(aig::Aig& g, aig::Lit held, aig::Lit pulse, aig::Lit clear);

/// One clock cycle of the distributed controller network, wired as
/// rtl::emitDistributedTop wires it: every controller's rtlFsmFunctions,
/// reading a completion signal (a key of dcu.producerOf) as `held | pulse`
/// (`held` its latch, when the caller has one) and every other input from
/// the caller's resolver.  The pulse fixpoint the RTL settles within the
/// clock is unrolled fsm::kPulseFixpointIterations rounds: round 1 reads no
/// pulses, each later round the pulses of the one before.
struct NetworkCones {
  std::vector<FnMap> fns;  ///< per controller, the last round's cones
  /// Per controller, the literal each declared input read in the last round.
  std::vector<std::map<std::string, aig::Lit>> reads;
  std::map<std::string, aig::Lit> pulse;      ///< emitted by the last round
  std::map<std::string, aig::Lit> prevPulse;  ///< ... and the one before
};

/// Lower one network cycle: `encs`/`stateBits` give each controller's
/// encoding and current state bits (controller order), `held` one latch
/// literal per latched completion signal, `externalOf` every other input
/// (called in input-declaration order, once per controller and round).
NetworkCones networkStep(aig::Aig& g, const fsm::DistributedControlUnit& dcu,
                         const std::vector<synth::Encoding>& encs,
                         const std::vector<std::vector<aig::Lit>>& stateBits,
                         const std::map<std::string, aig::Lit>& held,
                         const InputResolver& externalOf);

/// Shared AIG context of one controller: inputs are the encoded state bits
/// (state0.. state{n-1}) followed by the FSM's declared input signals.
struct ControllerContext {
  aig::Aig g;
  const fsm::Fsm* fsm = nullptr;
  synth::Encoding enc;
  std::vector<aig::Lit> stateBits;
  std::map<std::string, aig::Lit> inputOf;
  aig::Lit valid = aig::kLitFalse;  ///< OR of all encoded-state matches

  ControllerContext(const fsm::Fsm& f, synth::EncodingStyle style);
};

/// Representation 1: the FSM specification itself (fsmFunctions over the
/// context's inputs).
FnMap specFunctions(ControllerContext& ctx);

/// One minimized cover as a literal (cover variable order: state bits LSB
/// first, then the declared input signals -- synth/extract.hpp).
aig::Lit coverLit(ControllerContext& ctx, const logic::Cover& cover);

/// Representation 2: the minimized two-level covers of `syn`.
FnMap coverFunctions(ControllerContext& ctx, const synth::SynthesizedFsm& syn);

/// Representation 3: the gate netlist.  Netlist inputs unknown to the
/// context become fresh free variables, so any dependence on them surfaces
/// as a counterexample.
FnMap netlistFunctions(ControllerContext& ctx, const netlist::Netlist& net);

/// Symbolic evaluation of a vsim module's combinational behaviour: signals
/// are LSB-first literal vectors; if/else and case merge per-branch
/// environments through muxes.
class SymbolicEval {
 public:
  using Env = std::map<std::string, std::vector<aig::Lit>>;

  SymbolicEval(aig::Aig& g, const vsim::Module& m);

  int widthOf(const std::string& name) const;

  /// Execute every combinational construct (wire inits, continuous assigns,
  /// always @* blocks) once, in order, over `env`.
  void runCombinational(Env& env);

  /// Execute the sequential blocks as a next-state function: the returned
  /// env maps each register to its post-edge value (hold when unassigned).
  void runSequential(Env& env);

  aig::Lit nonzero(const std::vector<aig::Lit>& bits);

  std::vector<aig::Lit> eval(const vsim::Expr& e, const Env& env);

 private:
  std::vector<aig::Lit> resize(std::vector<aig::Lit> bits, int width);
  void exec(const std::vector<vsim::StmtPtr>& stmts, Env& env);
  void execArms(const std::vector<vsim::CaseArm>& arms, std::size_t idx,
                const std::vector<aig::Lit>& subject,
                const vsim::CaseArm* defaultArm, Env& env);
  void mergeEnv(aig::Lit cond, const Env& thenEnv, const Env& elseEnv,
                Env& out);

  aig::Aig& g_;
  const vsim::Module& module_;
  std::map<std::string, int> width_;
};

/// Representation 4: the reparsed emitted Verilog of the controller module.
FnMap rtlFunctions(ControllerContext& ctx, const vsim::Module& m);

/// A whole elaborated package as one sequential AIG.  Inputs are the top
/// module's input bits, then one bit per register bit (a register is any
/// signal a sequential block assigns), each named after its hierarchical
/// signal ("u_ctrl.state[1]" for bits of multi-bit signals).
struct PackageCones {
  aig::Aig g;
  /// Per elaborated signal (vsim::SignalId), LSB first: its settled
  /// combinational value, a register's current value, 0 when undriven.
  std::vector<std::vector<aig::Lit>> signal;
  struct RegisterBit {
    std::size_t input = 0;         ///< AIG input index of the current value
    aig::Lit next = aig::kLitFalse;  ///< value after the clock edge
  };
  std::vector<RegisterBit> regs;
};

/// Lower an elaborated package: SymbolicEval runs every instance's
/// combinational constructs in elaboration order, writing back only the
/// signals that instance drives, until a round leaves every literal
/// unchanged; then the sequential blocks give the next-state cones, and the
/// graph keeps only the cones the result names.  Throws when
/// fsm::kPulseFixpointIterations + 1 rounds do not settle (a combinational
/// loop) or a module uses gate primitives.
PackageCones lowerPackage(const vsim::Elaboration& elab);

/// Decode a CEC counterexample back to "state=<name>, in1=0, ..." text.
std::string describeCounterexample(const ControllerContext& ctx,
                                   const aig::CecResult& r);

}  // namespace tauhls::verify::lowering
