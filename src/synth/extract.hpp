// Next-state / output logic extraction and two-level minimization.
//
// Variables of every extracted function, LSB first: the encoded state bits,
// then the declared input signals.  Rows whose state-bit pattern decodes to
// no state (or to an unreachable one) are don't-cares, which is where binary
// encoding recovers area.  Each function is minimized with the logic module
// (exact primes up to 14 variables, heuristic expansion beyond) and
// re-verified against its specification.  The Fast regime reads each
// function's onset and offset as cube lists off the transitions and builds
// no truth table above 14 variables; the Reference regime fills one table
// row per assignment.
#pragma once

#include <string>
#include <vector>

#include "logic/cover.hpp"
#include "synth/encoding.hpp"

namespace tauhls::synth {

/// The widest controller (state bits + inputs) synthesize() extracts: the
/// Fast regime is bounded by a cube's 64 variables, the Reference regime by
/// its 2^n-row tables.
inline constexpr int kMaxFastVars = 64;
inline constexpr int kMaxReferenceVars = 22;

struct SynthesizedFsm {
  std::string name;
  int numInputs = 0;
  int numOutputs = 0;
  int numStates = 0;
  int flipFlops = 0;
  std::vector<logic::Cover> nextStateLogic;  ///< one cover per state bit
  std::vector<logic::Cover> outputLogic;     ///< one cover per output signal

  /// Total literals of the minimized next-state + output network.
  int totalLiterals() const;
};

/// States reachable from the initial state through any transition.  This is
/// exactly the care-set predicate of the minimizer's don't-care rows, so the
/// don't-care-soundness checker (verify/dcs_check.hpp) can re-derive the
/// care set the covers were minimized against.
std::vector<bool> reachableStates(const fsm::Fsm& fsm);

/// Synthesize `fsm` (which must be valid: deterministic and complete).
/// Throws when its state bits + inputs exceed kMaxFastVars (Fast) or
/// kMaxReferenceVars (Reference).
///
/// Each distinct controller is synthesized once per process.  Results are
/// cached by a 128-bit structural key over everything the covers depend on
/// and no name: the encoding, the state count, the initial state, the input
/// and output counts, and per transition its endpoints, its guard terms as
/// (input index, polarity) and its output indices.  Machines that differ
/// only in machine, state or signal names share one entry; the caller's FSM
/// name is stamped on the returned copy.  The cache is single-flight: the
/// first caller for a key computes, concurrent callers for that key wait for
/// its result.  Errors are not cached: waiters on a synthesis that throws
/// recompute and throw with their own FSM's name, and a later call
/// recomputes.  The cache is cleared when it reaches a fixed entry cap.
/// Within one call, next-state and output functions that agree on every
/// firing transition (e.g. RE_i and CCO_i) are minimized once.
/// MinimizerImpl::Reference bypasses the cache and the in-call reuse, so
/// the kernel benchmark's naive regime pays the full per-call cost.
SynthesizedFsm synthesize(const fsm::Fsm& fsm,
                          EncodingStyle style = EncodingStyle::Binary);

}  // namespace tauhls::synth
