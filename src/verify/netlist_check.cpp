#include "verify/netlist_check.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"

namespace tauhls::verify {

// ---- gate IR -------------------------------------------------------------

namespace {

// Builds "n<id>" without operator+(const char*, string&&), which trips a
// gcc-12 -Wrestrict false positive under -O2.
std::string netLabel(netlist::NetId id) {
  std::string s = "n";
  s += std::to_string(id);
  return s;
}

}  // namespace

void lintNetlist(const netlist::Netlist& net, Report& report) {
  const std::string artifact = "netlist " + net.name();
  const std::size_t n = net.numGates();

  std::vector<int> fanoutCount(n, 0);
  std::vector<bool> isOutput(n, false);
  for (const auto& [name, id] : net.outputs()) {
    if (id < n) isOutput[id] = true;
  }

  for (netlist::NetId id = 0; id < n; ++id) {
    const netlist::Gate& g = net.gate(id);
    const std::size_t arity = g.fanins.size();
    switch (g.kind) {
      case netlist::GateKind::Input:
      case netlist::GateKind::Const0:
      case netlist::GateKind::Const1:
        if (arity != 0) {
          report.add("NET008", artifact, g.name,
                     std::string(netlist::gateKindName(g.kind)) + " gate has " +
                         std::to_string(arity) + " fanins");
        }
        break;
      case netlist::GateKind::Inv:
        if (arity != 1) {
          report.add("NET008", artifact, netLabel(id),
                     "INV gate has " + std::to_string(arity) + " fanins");
        }
        break;
      case netlist::GateKind::And:
      case netlist::GateKind::Or:
        if (arity < 2) {
          report.add("NET008", artifact, netLabel(id),
                     std::string(netlist::gateKindName(g.kind)) +
                         " gate has " + std::to_string(arity) + " fanins");
        }
        break;
    }
    for (const netlist::NetId f : g.fanins) {
      if (f >= id) {
        // The IR's acyclicity invariant: fanins reference earlier nets.
        report.add("NET001", artifact, netLabel(id),
                   "fanin " + netLabel(f) +
                       " does not precede the gate (cyclic reference)");
      } else {
        ++fanoutCount[f];
      }
    }
  }

  for (netlist::NetId id = 0; id < n; ++id) {
    const netlist::Gate& g = net.gate(id);
    if (fanoutCount[id] > 0 || isOutput[id]) continue;
    if (g.kind == netlist::GateKind::Input) {
      report.add("NET006", artifact, g.name, "primary input drives no gate");
    } else if (g.kind != netlist::GateKind::Const0 &&
               g.kind != netlist::GateKind::Const1) {
      report.add("NET007", artifact, netLabel(id),
                 std::string(netlist::gateKindName(g.kind)) +
                     " gate drives nothing");
    }
  }
}

// ---- parsed RTL ----------------------------------------------------------

namespace {

void collectExprRefs(const vsim::Expr* e, std::set<std::string>& refs) {
  if (e == nullptr) return;
  if (e->kind == vsim::ExprKind::Ref) refs.insert(e->name);
  for (const vsim::ExprPtr& a : e->args) collectExprRefs(a.get(), refs);
}

void collectStmtRefs(const std::vector<vsim::StmtPtr>& body,
                     std::set<std::string>& reads,
                     std::set<std::string>& writes) {
  for (const vsim::StmtPtr& s : body) {
    switch (s->kind) {
      case vsim::StmtKind::Assign:
        collectExprRefs(s->rhs.get(), reads);
        writes.insert(s->lhs);
        break;
      case vsim::StmtKind::If:
        collectExprRefs(s->condition.get(), reads);
        collectStmtRefs(s->thenBody, reads, writes);
        collectStmtRefs(s->elseBody, reads, writes);
        break;
      case vsim::StmtKind::Case:
        collectExprRefs(s->subject.get(), reads);
        for (const vsim::CaseArm& arm : s->arms) {
          collectExprRefs(arm.label.get(), reads);
          collectStmtRefs(arm.body, reads, writes);
        }
        break;
    }
  }
}

/// Constant value of an expression when statically known (consts and
/// localparam references).
std::optional<std::uint64_t> constValueOf(const vsim::Module& m,
                                          const vsim::Expr* e) {
  if (e == nullptr) return std::nullopt;
  if (e->kind == vsim::ExprKind::Const) return e->value;
  if (e->kind == vsim::ExprKind::Ref) {
    const auto it = m.localparams.find(e->name);
    if (it != m.localparams.end()) return it->second;
  }
  return std::nullopt;
}

struct ModuleIndex {
  std::map<std::string, int> widthOf;  ///< declared nets and ports
  std::set<std::string> inputs;
  std::set<std::string> outputs;
};

ModuleIndex indexModule(const vsim::Module& m) {
  ModuleIndex idx;
  for (const vsim::Port& p : m.ports) {
    idx.widthOf.emplace(p.name, 1);
    (p.dir == vsim::PortDir::Input ? idx.inputs : idx.outputs).insert(p.name);
  }
  for (const vsim::NetDecl& d : m.nets) {
    idx.widthOf[d.name] = d.width;  // refines a port's default width
  }
  return idx;
}

/// Declared width of a pure reference, when the expression is one.
std::optional<int> refWidth(const ModuleIndex& idx, const vsim::Expr* e) {
  if (e == nullptr || e->kind != vsim::ExprKind::Ref) return std::nullopt;
  const auto it = idx.widthOf.find(e->name);
  if (it == idx.widthOf.end()) return std::nullopt;
  return it->second;
}

bool fitsWidth(std::uint64_t value, int width) {
  if (width >= 64) return true;
  return value < (std::uint64_t{1} << width);
}

/// NET004 checks inside one expression tree: constants compared against or
/// assigned to a reference must fit its declared width.
void checkExprWidths(const vsim::Module& m, const ModuleIndex& idx,
                     const std::string& artifact, const vsim::Expr* e,
                     Report& report) {
  if (e == nullptr) return;
  if (e->kind == vsim::ExprKind::Eq || e->kind == vsim::ExprKind::NotEq) {
    for (int side = 0; side < 2 && e->args.size() == 2; ++side) {
      const std::optional<int> w = refWidth(idx, e->args[side ? 1 : 0].get());
      const std::optional<std::uint64_t> v =
          constValueOf(m, e->args[side ? 0 : 1].get());
      if (w.has_value() && v.has_value() && !fitsWidth(*v, *w)) {
        report.add("NET004", artifact, e->args[side ? 1 : 0]->name,
                   "compared against constant " + std::to_string(*v) +
                       " which does not fit " + std::to_string(*w) + " bit(s)");
      }
    }
  }
  for (const vsim::ExprPtr& a : e->args) {
    checkExprWidths(m, idx, artifact, a.get(), report);
  }
}

void checkStmtWidths(const vsim::Module& m, const ModuleIndex& idx,
                     const std::string& artifact,
                     const std::vector<vsim::StmtPtr>& body, Report& report) {
  for (const vsim::StmtPtr& s : body) {
    switch (s->kind) {
      case vsim::StmtKind::Assign: {
        checkExprWidths(m, idx, artifact, s->rhs.get(), report);
        const auto lw = idx.widthOf.find(s->lhs);
        const std::optional<std::uint64_t> v = constValueOf(m, s->rhs.get());
        if (lw != idx.widthOf.end() && v.has_value() &&
            !fitsWidth(*v, lw->second)) {
          report.add("NET004", artifact, s->lhs,
                     "assigned constant " + std::to_string(*v) +
                         " which does not fit " + std::to_string(lw->second) +
                         " bit(s)");
        }
        break;
      }
      case vsim::StmtKind::If:
        checkExprWidths(m, idx, artifact, s->condition.get(), report);
        checkStmtWidths(m, idx, artifact, s->thenBody, report);
        checkStmtWidths(m, idx, artifact, s->elseBody, report);
        break;
      case vsim::StmtKind::Case: {
        checkExprWidths(m, idx, artifact, s->subject.get(), report);
        const std::optional<int> sw = refWidth(idx, s->subject.get());
        for (const vsim::CaseArm& arm : s->arms) {
          const std::optional<std::uint64_t> v =
              constValueOf(m, arm.label.get());
          if (sw.has_value() && v.has_value() && !fitsWidth(*v, *sw)) {
            report.add("NET004", artifact, s->subject->name,
                       "case label " + std::to_string(*v) +
                           " does not fit " + std::to_string(*sw) + " bit(s)");
          }
          checkStmtWidths(m, idx, artifact, arm.body, report);
        }
        break;
      }
    }
  }
}

/// Report one combinational cycle (if any) in the signal dependence graph.
void reportCombCycle(const std::map<std::string, std::set<std::string>>& deps,
                     const std::string& artifact, Report& report) {
  // Iterative DFS with tricolor marking; the first back edge yields a cycle.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  for (const auto& [start, ignored] : deps) {
    if (color[start] != 0) continue;
    std::vector<std::pair<std::string, std::vector<std::string>>> stack;
    std::vector<std::string> path;
    stack.push_back({start, {}});
    while (!stack.empty()) {
      auto& [node, pending] = stack.back();
      if (color[node] == 0) {
        color[node] = 1;
        path.push_back(node);
        const auto it = deps.find(node);
        if (it != deps.end()) {
          pending.assign(it->second.begin(), it->second.end());
        }
      }
      if (pending.empty()) {
        color[node] = 2;
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const std::string next = pending.back();
      pending.pop_back();
      if (color[next] == 1) {
        std::string cycle;
        const auto begin = std::find(path.begin(), path.end(), next);
        for (auto it = begin; it != path.end(); ++it) cycle += *it + " -> ";
        cycle += next;
        report.add("NET001", artifact, next, "combinational cycle: " + cycle);
        return;
      }
      if (color[next] == 0) stack.push_back({next, {}});
    }
  }
}

void lintModule(const vsim::Design& design, const vsim::Module& m,
                Report& report) {
  const std::string artifact = "rtl " + m.name;
  const ModuleIndex idx = indexModule(m);

  // Driver and reader maps across all construct kinds.
  std::map<std::string, std::vector<std::string>> driversOf;
  std::set<std::string> reads;
  std::map<std::string, std::set<std::string>> combDeps;  // lhs -> read refs

  for (const vsim::ContinuousAssign& a : m.assigns) {
    driversOf[a.lhs].push_back("assign");
    std::set<std::string> rhsRefs;
    collectExprRefs(a.rhs.get(), rhsRefs);
    reads.insert(rhsRefs.begin(), rhsRefs.end());
    combDeps[a.lhs].insert(rhsRefs.begin(), rhsRefs.end());
    checkExprWidths(m, idx, artifact, a.rhs.get(), report);
  }

  for (const vsim::GateInst& g : m.gates) {
    driversOf[g.output].push_back(g.kind + " gate");
    const std::size_t want = g.kind == "not" ? 1 : 2;
    if ((g.kind == "not" && g.inputs.size() != 1) ||
        (g.kind != "not" && g.inputs.size() < want)) {
      report.add("NET008", artifact, g.output,
                 g.kind + " gate has " + std::to_string(g.inputs.size()) +
                     " inputs");
    }
    for (const std::string& in : g.inputs) {
      reads.insert(in);
      combDeps[g.output].insert(in);
      const auto w = idx.widthOf.find(in);
      if (w != idx.widthOf.end() && w->second != 1) {
        report.add("NET004", artifact, in,
                   "connects a " + std::to_string(w->second) +
                       "-bit net to a 1-bit " + g.kind + " gate pin");
      }
    }
    const auto w = idx.widthOf.find(g.output);
    if (w != idx.widthOf.end() && w->second != 1) {
      report.add("NET004", artifact, g.output,
                 "a 1-bit " + g.kind + " gate drives a " +
                     std::to_string(w->second) + "-bit net");
    }
  }

  for (const vsim::AlwaysBlock& b : m.always) {
    std::set<std::string> blockReads;
    std::set<std::string> blockWrites;
    collectStmtRefs(b.body, blockReads, blockWrites);
    checkStmtWidths(m, idx, artifact, b.body, report);
    reads.insert(blockReads.begin(), blockReads.end());
    if (b.sequential) reads.insert("clk");
    for (const std::string& w : blockWrites) {
      driversOf[w].push_back(b.sequential ? "sequential always"
                                          : "combinational always");
      if (!b.sequential) {
        combDeps[w].insert(blockReads.begin(), blockReads.end());
      }
    }
  }

  for (const vsim::Instance& inst : m.instances) {
    const vsim::Module* inner = design.findModule(inst.moduleName);
    if (inner == nullptr) {
      report.add("NET005", artifact, inst.instanceName,
                 "instantiates unknown module " + inst.moduleName);
      continue;
    }
    for (const auto& [port, outer] : inst.connections) {
      const auto pit =
          std::find_if(inner->ports.begin(), inner->ports.end(),
                       [&](const vsim::Port& p) { return p.name == port; });
      if (pit == inner->ports.end()) {
        report.add("NET005", artifact, inst.instanceName,
                   "connects missing port " + port + " of module " +
                       inst.moduleName);
        continue;
      }
      if (pit->dir == vsim::PortDir::Output) {
        driversOf[outer].push_back("instance " + inst.instanceName);
      } else {
        reads.insert(outer);
      }
      // Instances stay opaque in combDeps: cross-instance feedback is a
      // functional question (checkControlLoops), not a structural one.
    }
  }

  // NET003: more than one driver for a signal.
  for (const auto& [sig, drivers] : driversOf) {
    if (drivers.size() > 1) {
      std::string kinds;
      for (const std::string& d : drivers) {
        if (!kinds.empty()) kinds += ", ";
        kinds += d;
      }
      report.add("NET003", artifact, sig, "driven by " + kinds);
    }
  }

  // NET002: read or exported signals nothing drives.
  auto isDriven = [&](const std::string& sig) {
    if (driversOf.contains(sig)) return true;
    if (idx.inputs.contains(sig)) return true;
    if (m.localparams.contains(sig)) return true;
    // wire n = <expr>; declarations carry their driver inline.
    return std::any_of(m.nets.begin(), m.nets.end(), [&](const vsim::NetDecl& d) {
      return d.name == sig && d.init != nullptr;
    });
  };
  for (const std::string& sig : reads) {
    if (!isDriven(sig)) {
      report.add("NET002", artifact, sig, "read but never driven");
    }
  }
  for (const std::string& out : idx.outputs) {
    if (!isDriven(out)) {
      report.add("NET002", artifact, out, "output port is never driven");
    }
  }

  // NET006 / NET007: dead declarations.
  for (const std::string& in : idx.inputs) {
    if (!reads.contains(in)) {
      report.add("NET006", artifact, in, "input port is never read");
    }
  }
  for (const vsim::NetDecl& d : m.nets) {
    if (idx.inputs.contains(d.name) || idx.outputs.contains(d.name)) continue;
    if (!reads.contains(d.name) && (driversOf.contains(d.name) || d.init)) {
      report.add("NET007", artifact, d.name, "declared net is never read");
    }
  }

  // NET001: intra-module combinational cycles (instances opaque).
  reportCombCycle(combDeps, artifact, report);
}

}  // namespace

void lintRtl(const vsim::Design& design, Report& report) {
  for (const vsim::Module& m : design.modules) lintModule(design, m, report);
}

// ---- functional cross-controller loops -----------------------------------

namespace {

/// Structural support (primary input names) of `target` in `net`.
std::set<std::string> structuralSupport(const netlist::Netlist& net,
                                        netlist::NetId target) {
  std::set<std::string> support;
  std::vector<bool> seen(net.numGates(), false);
  std::vector<netlist::NetId> stack = {target};
  while (!stack.empty()) {
    const netlist::NetId id = stack.back();
    stack.pop_back();
    if (id >= net.numGates() || seen[id]) continue;
    seen[id] = true;
    const netlist::Gate& g = net.gate(id);
    if (g.kind == netlist::GateKind::Input) support.insert(g.name);
    for (const netlist::NetId f : g.fanins) stack.push_back(f);
  }
  return support;
}

/// Exact functional dependence of output net `target` on input `x`,
/// enumerated over the (small) structural support.  Falls back to the
/// structural answer when the support is too large to enumerate.
bool functionallyDepends(const netlist::Netlist& net, netlist::NetId target,
                         const std::string& x,
                         const std::set<std::string>& support) {
  if (!support.contains(x)) return false;
  std::vector<std::string> others;
  for (const std::string& s : support) {
    if (s != x) others.push_back(s);
  }
  if (others.size() > 18) return true;  // conservative: assume dependence
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << others.size()); ++a) {
    std::unordered_set<std::string> asserted;
    for (std::size_t i = 0; i < others.size(); ++i) {
      if ((a >> i) & 1) asserted.insert(others[i]);
    }
    const bool low = net.evaluate(asserted)[target];
    asserted.insert(x);
    const bool high = net.evaluate(asserted)[target];
    if (low != high) return true;
  }
  return false;
}

}  // namespace

void checkControlLoops(const fsm::DistributedControlUnit& dcu,
                       const std::vector<netlist::ControllerNetlist>& netlists,
                       const std::string& name, Report& report) {
  TAUHLS_CHECK(netlists.size() == dcu.controllers.size(),
               "one netlist per controller expected");
  const std::string artifact = "controllers " + name;

  // Dependence edges CCO_a -> CCO_b: the controller producing b combinationally
  // reads a in b's output function (through the latch's live-pulse bypass).
  std::map<std::string, std::set<std::string>> deps;
  for (const netlist::ControllerNetlist& cn : netlists) {
    for (const auto& [outName, outNet] : cn.net.outputs()) {
      if (!dcu.producerOf.contains(outName)) continue;  // not a CCO wire
      const std::set<std::string> support =
          structuralSupport(cn.net, outNet);
      for (const std::string& in : support) {
        if (!dcu.producerOf.contains(in)) continue;  // state bit or C_T
        if (functionallyDepends(cn.net, outNet, in, support)) {
          deps[outName].insert(in);
        }
      }
    }
  }
  reportCombCycle(deps, artifact, report);
}

}  // namespace tauhls::verify
