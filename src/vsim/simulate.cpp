#include "vsim/simulate.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace tauhls::vsim {

Simulator::Simulator(const std::string& source, const std::string& topModule)
    : design_(parseDesign(source)) {
  elab_ = elaborate(design_, topModule);
  values_.assign(elab_.signalNames.size(), 0);
  settle();
}

std::uint64_t Simulator::maskOf(SignalId id) const {
  const int w = elab_.signalWidth[id];
  return w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
}

void Simulator::setInput(const std::string& name, std::uint64_t value) {
  const FlatInstance& top = elab_.instances.front();
  auto it = top.signalOf.find(name);
  TAUHLS_CHECK(it != top.signalOf.end(), "unknown top input: " + name);
  values_[it->second] = value & maskOf(it->second);
}

std::uint64_t Simulator::signal(const std::string& hierarchicalName) const {
  return values_[elab_.findSignal(hierarchicalName)];
}

std::uint64_t Simulator::top(const std::string& localName) const {
  const FlatInstance& topInst = elab_.instances.front();
  auto it = topInst.signalOf.find(localName);
  TAUHLS_CHECK(it != topInst.signalOf.end(),
               "unknown top signal: " + localName);
  return values_[it->second];
}

std::uint64_t Simulator::eval(const FlatInstance& inst, const Expr& e) const {
  switch (e.kind) {
    case ExprKind::Const:
      return e.value;
    case ExprKind::Ref: {
      auto lp = inst.module->localparams.find(e.name);
      if (lp != inst.module->localparams.end()) return lp->second;
      auto sig = inst.signalOf.find(e.name);
      TAUHLS_CHECK(sig != inst.signalOf.end(),
                   "undeclared signal '" + e.name + "' in " +
                       inst.module->name);
      return values_[sig->second];
    }
    case ExprKind::Not:
      return eval(inst, *e.args[0]) == 0 ? 1 : 0;
    case ExprKind::And: {
      // Bitwise on multi-bit values degenerates to logical on 1-bit nets,
      // which is all the emitted subset mixes.
      return eval(inst, *e.args[0]) & eval(inst, *e.args[1]);
    }
    case ExprKind::Or:
      return eval(inst, *e.args[0]) | eval(inst, *e.args[1]);
    case ExprKind::Xor:
      return eval(inst, *e.args[0]) ^ eval(inst, *e.args[1]);
    case ExprKind::Eq:
      return eval(inst, *e.args[0]) == eval(inst, *e.args[1]) ? 1 : 0;
    case ExprKind::NotEq:
      return eval(inst, *e.args[0]) != eval(inst, *e.args[1]) ? 1 : 0;
    case ExprKind::Cond:
      return eval(inst, *e.args[0]) != 0 ? eval(inst, *e.args[1])
                                         : eval(inst, *e.args[2]);
    case ExprKind::Concat: {
      std::uint64_t v = 0;
      for (const ExprPtr& arg : e.args) {
        const int w = widthOfExpr(inst, *arg);
        const std::uint64_t mask =
            w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
        v = (v << w) | (eval(inst, *arg) & mask);
      }
      return v;
    }
    case ExprKind::RedAnd: {
      const int w = widthOfExpr(inst, *e.args[0]);
      const std::uint64_t mask =
          w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
      return (eval(inst, *e.args[0]) & mask) == mask ? 1 : 0;
    }
    case ExprKind::RedOr:
      return eval(inst, *e.args[0]) != 0 ? 1 : 0;
    case ExprKind::RedXor: {
      const int w = widthOfExpr(inst, *e.args[0]);
      const std::uint64_t mask =
          w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
      return static_cast<std::uint64_t>(
          std::popcount(eval(inst, *e.args[0]) & mask) & 1);
    }
  }
  TAUHLS_FAIL("unknown expression kind");
}

int Simulator::widthOfExpr(const FlatInstance& inst, const Expr& e) const {
  switch (e.kind) {
    case ExprKind::Const:
      // Inside concats/reductions the emitted subset always sizes its
      // literals; an unsized constant is treated as self-determined 1-bit
      // elsewhere (guards, comparisons).
      return e.width > 0 ? e.width : 1;
    case ExprKind::Ref: {
      if (inst.module->localparams.contains(e.name)) return 1;
      auto sig = inst.signalOf.find(e.name);
      TAUHLS_CHECK(sig != inst.signalOf.end(),
                   "undeclared signal '" + e.name + "' in " +
                       inst.module->name);
      return elab_.signalWidth[sig->second];
    }
    case ExprKind::Cond:
      return std::max(widthOfExpr(inst, *e.args[1]),
                      widthOfExpr(inst, *e.args[2]));
    case ExprKind::Concat: {
      int total = 0;
      for (const ExprPtr& arg : e.args) total += widthOfExpr(inst, *arg);
      return total;
    }
    case ExprKind::Not:
    case ExprKind::And:
    case ExprKind::Or:
    case ExprKind::Xor:
    case ExprKind::Eq:
    case ExprKind::NotEq:
    case ExprKind::RedAnd:
    case ExprKind::RedOr:
    case ExprKind::RedXor:
      return 1;  // the subset's logic operators are 1-bit producers
  }
  TAUHLS_FAIL("unknown expression kind");
}

void Simulator::write(const FlatInstance& inst, const std::string& name,
                      std::uint64_t value) {
  auto sig = inst.signalOf.find(name);
  TAUHLS_CHECK(sig != inst.signalOf.end(),
               "assignment to undeclared signal '" + name + "'");
  values_[sig->second] = value & maskOf(sig->second);
}

void Simulator::execStmts(const FlatInstance& inst,
                          const std::vector<StmtPtr>& stmts, bool sequential,
                          std::vector<std::pair<SignalId, std::uint64_t>>* nba) {
  for (const StmtPtr& stmt : stmts) {
    switch (stmt->kind) {
      case StmtKind::Assign: {
        const std::uint64_t v = eval(inst, *stmt->rhs);
        if (sequential && stmt->nonblocking) {
          auto sig = inst.signalOf.find(stmt->lhs);
          TAUHLS_CHECK(sig != inst.signalOf.end(),
                       "nonblocking assignment to undeclared signal '" +
                           stmt->lhs + "'");
          nba->emplace_back(sig->second, v & maskOf(sig->second));
        } else {
          write(inst, stmt->lhs, v);
        }
        break;
      }
      case StmtKind::If:
        if (eval(inst, *stmt->condition) != 0) {
          execStmts(inst, stmt->thenBody, sequential, nba);
        } else {
          execStmts(inst, stmt->elseBody, sequential, nba);
        }
        break;
      case StmtKind::Case: {
        const std::uint64_t subject = eval(inst, *stmt->subject);
        const CaseArm* chosen = nullptr;
        const CaseArm* fallback = nullptr;
        for (const CaseArm& arm : stmt->arms) {
          if (!arm.label) {
            fallback = &arm;
          } else if (eval(inst, *arm.label) == subject && chosen == nullptr) {
            chosen = &arm;
          }
        }
        if (chosen == nullptr) chosen = fallback;
        if (chosen != nullptr) execStmts(inst, chosen->body, sequential, nba);
        break;
      }
    }
  }
}

void Simulator::settle() {
  for (int iter = 0;; ++iter) {
    TAUHLS_CHECK(iter < 200,
                 "combinational logic did not settle (possible loop)");
    const std::vector<std::uint64_t> before = values_;
    for (const FlatInstance& inst : elab_.instances) {
      for (const NetDecl& d : inst.module->nets) {
        if (d.init) write(inst, d.name, eval(inst, *d.init));
      }
      for (const ContinuousAssign& a : inst.module->assigns) {
        write(inst, a.lhs, eval(inst, *a.rhs));
      }
      for (const GateInst& g : inst.module->gates) {
        std::uint64_t v = 0;
        if (g.kind == "not") {
          TAUHLS_CHECK(g.inputs.size() == 1, "not gate needs one input");
          auto sig = inst.signalOf.find(g.inputs[0]);
          TAUHLS_CHECK(sig != inst.signalOf.end(), "undeclared gate input");
          v = values_[sig->second] == 0 ? 1 : 0;
        } else {
          const bool isAnd = g.kind == "and";
          v = isAnd ? 1 : 0;
          for (const std::string& in : g.inputs) {
            auto sig = inst.signalOf.find(in);
            TAUHLS_CHECK(sig != inst.signalOf.end(), "undeclared gate input");
            const bool bit = values_[sig->second] != 0;
            if (isAnd) {
              v = v && bit;
            } else {
              v = v || bit;
            }
          }
        }
        write(inst, g.output, v);
      }
      for (const AlwaysBlock& blk : inst.module->always) {
        if (!blk.sequential) execStmts(inst, blk.body, false, nullptr);
      }
    }
    if (values_ == before) return;
  }
}

void Simulator::clockEdge() {
  settle();
  std::vector<std::pair<SignalId, std::uint64_t>> nba;
  for (const FlatInstance& inst : elab_.instances) {
    for (const AlwaysBlock& blk : inst.module->always) {
      if (blk.sequential) execStmts(inst, blk.body, true, &nba);
    }
  }
  for (const auto& [sig, value] : nba) values_[sig] = value;
  settle();
}

}  // namespace tauhls::vsim
