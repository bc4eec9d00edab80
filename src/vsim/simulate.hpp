// Cycle-based simulation of an elaborated design.
//
// Model: all sequential blocks are clocked by the single clock; `settle()`
// iterates every combinational construct (wire initializers, continuous
// assigns, gate primitives, always @* blocks) to a fixpoint; `clockEdge()`
// executes the sequential blocks against the settled values, commits the
// nonblocking assignments atomically, and re-settles.  This matches the
// synthesizable subset's semantics exactly (no delta-delay races exist in
// the emitted code: the combinational signal graph is acyclic).
//
// Values are two-valued: every signal is a plain uint64, and every signal
// powers on at 0.  Ternary (0/1/X) questions about an emitted package are
// answered on its AIG lowering instead (verify/lowering.hpp lowerPackage,
// simulated by aig/ternary.hpp), which the reset-robustness replay
// (verify/xprop_check.hpp) drives from an all-X power-on.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "vsim/elaborate.hpp"
#include "vsim/parser.hpp"

namespace tauhls::vsim {

class Simulator {
 public:
  /// Parse + elaborate + reset all signals to 0.
  Simulator(const std::string& source, const std::string& topModule);

  /// Set a top-level input (by local name on the top module).
  void setInput(const std::string& name, std::uint64_t value);

  /// Read any signal by hierarchical name ("RE_m1", "u_ctrl.state", ...).
  std::uint64_t signal(const std::string& hierarchicalName) const;
  /// Read a top-level signal by local name.
  std::uint64_t top(const std::string& localName) const;

  /// Propagate combinational logic to a fixpoint.
  void settle();
  /// One positive clock edge (settles before sampling and after committing).
  void clockEdge();

  const Elaboration& elaboration() const { return elab_; }

 private:
  std::uint64_t eval(const FlatInstance& inst, const Expr& e) const;
  void execStmts(const FlatInstance& inst,
                 const std::vector<StmtPtr>& stmts, bool sequential,
                 std::vector<std::pair<SignalId, std::uint64_t>>* nba);
  void write(const FlatInstance& inst, const std::string& name,
             std::uint64_t value);

  /// Bit width of an expression (needed by concat/reduction evaluation).
  int widthOfExpr(const FlatInstance& inst, const Expr& e) const;
  std::uint64_t maskOf(SignalId id) const;

  Design design_;
  Elaboration elab_;
  std::vector<std::uint64_t> values_;
};

}  // namespace tauhls::vsim
