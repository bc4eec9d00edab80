// Bit-parallel ternary (0/1/X) simulation through an Aig.
//
// Every signal carries two planes per 64-instance word: `one` holds the
// known-1 bits, `x` the unknown bits (a cleared bit in both planes is a
// known 0; `one & x == 0` is the canonical-form invariant every operation
// preserves).  An AND node is three bitwise ops over the fanin planes, so a
// full pass over the graph evaluates 64 ternary instances per node at word
// speed -- the same trick bitsim.hpp plays for two-valued patterns.
//
// The evaluation is *monotone in the information order* (X above 0 and 1):
// refining any X input bit to a constant can only refine the outputs, never
// flip a determinate bit.  That is what makes the reset-robustness proof
// (verify/xprop_check.hpp) sound: one all-X run that ends determinate
// subsumes every concrete power-on state and every input refinement.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"

namespace tauhls::aig {

/// 64 ternary instances: bit b is X when `x` bit b is set, else 0/1 per
/// `one` bit b.  Canonical form keeps `one & x == 0`.
struct XWord {
  std::uint64_t one = 0;
  std::uint64_t x = 0;

  friend bool operator==(const XWord&, const XWord&) = default;
};

/// All 64 instances X / all 0 / all 1.
inline constexpr XWord xAllX() { return {0, ~std::uint64_t{0}}; }
inline constexpr XWord xAllZero() { return {0, 0}; }
inline constexpr XWord xAllOne() { return {~std::uint64_t{0}, 0}; }
/// Concrete word: no X bits, value bits verbatim.
inline constexpr XWord xConcrete(std::uint64_t bits) { return {bits, 0}; }

/// !a: known bits invert, X stays X.
inline constexpr XWord xNot(XWord a) {
  return {~a.one & ~a.x, a.x};
}

/// a & b in Kleene logic: 0 dominates X, X & 1 = X.
inline constexpr XWord xAnd(XWord a, XWord b) {
  const std::uint64_t zero = (~a.one & ~a.x) | (~b.one & ~b.x);
  const std::uint64_t x = (a.x | b.x) & ~zero;
  return {a.one & b.one, x};
}

/// One combinational sweep of the graph per call: evaluates every node under
/// per-input ternary words.  Node order is construction order, which the Aig
/// guarantees topological, so a single forward pass suffices.
class TernaryEvaluator {
 public:
  /// The Aig must outlive the evaluator.  The graph may keep growing between
  /// run() calls; each run covers the nodes present at that moment.
  explicit TernaryEvaluator(const Aig& g) : g_(&g) {}

  /// Evaluate all nodes under `inputs` (one XWord per declared input, input
  /// order).  Inputs beyond the vector read all-X, so a partially driven
  /// evaluation stays sound.
  void run(const std::vector<XWord>& inputs);

  /// Value of a literal after run(); negation is a plane-local complement.
  XWord value(Lit l) const {
    const XWord v = node_[nodeOf(l)];
    return isNegated(l) ? xNot(v) : v;
  }

  /// AND-node evaluations performed so far (bench observability).
  std::uint64_t gateEvals() const { return gateEvals_; }

 private:
  const Aig* g_;
  std::vector<XWord> node_;
  std::uint64_t gateEvals_ = 0;
};

}  // namespace tauhls::aig
