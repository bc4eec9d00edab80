#include "verify/diagnostic.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "aig/sat.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace tauhls::verify {

const char* severityName(Severity severity) {
  switch (severity) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "unknown";
}

const std::vector<RuleInfo>& allRules() {
  static const std::vector<RuleInfo> rules = {
      // --- DFG lint -------------------------------------------------------
      {"DFG001", Severity::Error,
       "operand count does not match the operation's arity"},
      {"DFG002", Severity::Error, "operand references a missing node"},
      {"DFG003", Severity::Error, "graph contains a dependence cycle"},
      {"DFG004", Severity::Warning,
       "operation value reaches no primary output (dead op)"},
      {"DFG005", Severity::Warning,
       "redundant schedule arc (already implied by data edges or other arcs)"},
      {"DFG006", Severity::Error, "duplicate node name"},
      {"DFG007", Severity::Warning, "primary input has no consumers"},
      {"DFG008", Severity::Error,
       "invalid schedule arc (missing endpoint, self-arc, or duplicate)"},
      {"DFG009", Severity::Error,
       "region tree is structurally invalid (bad arity, undefined name, or "
       "outputs not defined on every path)"},
      {"DFG010", Severity::Error, "loop region has a trip count below one"},
      // --- schedule / binding legality -----------------------------------
      {"SCH001", Severity::Error, "operation is not bound to any unit"},
      {"SCH002", Severity::Error,
       "operation bound to a unit of an incompatible resource class"},
      {"SCH003", Severity::Error,
       "two operations occupy one unit in the same control step"},
      {"SCH004", Severity::Error,
       "data predecessor is not scheduled strictly earlier"},
      {"SCH005", Severity::Error,
       "control step uses more units of a class than allocated"},
      {"SCH006", Severity::Error,
       "unit execution order contradicts the step schedule"},
      {"SCH007", Severity::Error,
       "binding instantiates more units of a class than allocated"},
      {"SCH008", Severity::Error,
       "consecutive same-unit operations lack a serializing dependence"},
      {"SCH009", Severity::Error,
       "values with overlapping lifetimes share a register"},
      {"SCH010", Severity::Warning,
       "register allocation exceeds the maximum-live lower bound"},
      {"SCH011", Severity::Error, "operation is missing a control step"},
      {"SCH012", Severity::Error,
       "leaf schedules disagree on the shared allocation, clock, or library"},
      // --- FSM static checks ---------------------------------------------
      {"FSM001", Severity::Error, "state is unreachable from the initial state"},
      {"FSM002", Severity::Error, "state has no outgoing transitions"},
      {"FSM003", Severity::Error,
       "incomplete guards: some input assignment enables no transition"},
      {"FSM004", Severity::Error,
       "nondeterministic guards: two transitions can fire at once"},
      {"FSM005", Severity::Warning,
       "transition guard is unsatisfiable and can never fire"},
      {"FSM006", Severity::Warning, "declared input is read by no guard"},
      {"FSM007", Severity::Warning, "declared output is never asserted"},
      // --- distributed-controller model check ----------------------------
      {"MDL001", Severity::Error,
       "product deadlock: a controller has no enabled transition"},
      {"MDL002", Severity::Error,
       "livelock: an iteration restart is unreachable from a reachable "
       "configuration"},
      {"MDL003", Severity::Error,
       "lock-step violation: a reachable cycle executes operations unequally "
       "often"},
      {"MDL004", Severity::Error,
       "causality violation: an operation completes before a data predecessor"},
      {"MDL005", Severity::Error,
       "order violation: an operation completes before its unit's previous "
       "operation"},
      {"MDL006", Severity::Error,
       "distributed and centralized controllers disagree on the per-iteration "
       "event set"},
      {"MDL007", Severity::Warning,
       "model check incomplete: reachable-state bound exceeded"},
      {"MDL008", Severity::Info,
       "symbolic model check summary (BMC + k-induction verdicts)"},
      {"MDL009", Severity::Error,
       "region sequencer handshake defect (start/done protocol violated)"},
      {"MDL010", Severity::Info, "composed-controller summary"},
      // --- netlist / RTL structural checks -------------------------------
      {"NET001", Severity::Error, "combinational cycle"},
      {"NET002", Severity::Error, "undriven net or signal"},
      {"NET003", Severity::Error, "multiply-driven net or signal"},
      {"NET004", Severity::Error, "width mismatch"},
      {"NET005", Severity::Error,
       "instance references an unknown module or port"},
      {"NET006", Severity::Warning, "input is never read"},
      {"NET007", Severity::Warning, "gate or net drives nothing"},
      {"NET008", Severity::Error, "malformed gate arity"},
      // --- symbolic equivalence (translation validation) ------------------
      {"EQV001", Severity::Error,
       "minimized cover is not equivalent to the FSM specification"},
      {"EQV002", Severity::Error,
       "gate netlist is not equivalent to the minimized cover"},
      {"EQV003", Severity::Error,
       "reparsed emitted Verilog is not equivalent to the gate netlist"},
      {"EQV004", Severity::Error,
       "completion-latch module deviates from the held|pulse specification"},
      {"EQV005", Severity::Warning,
       "equivalence unproven: SAT conflict budget exhausted"},
      {"EQV006", Severity::Info,
       "controller proven equivalent end to end (spec = cover = netlist = "
       "RTL)"},
      // --- X-propagation / reset robustness --------------------------------
      {"XPR001", Severity::Error,
       "register can still be X after the reset window (ternary power-on "
       "analysis of the controller network)"},
      {"XPR002", Severity::Error,
       "emitted RTL disagrees with the network model under ternary replay"},
      {"XPR003", Severity::Error,
       "region sequencer or ST_/DN_ handshake latch stays X across a region "
       "boundary"},
      {"XPR004", Severity::Info,
       "reset robustness summary (proven reset depth and instance count)"},
      // --- don't-care soundness of the minimized covers --------------------
      {"DCS001", Severity::Error,
       "minimized cover differs from the FSM specification on a care row"},
      {"DCS002", Severity::Error,
       "a don't-care row is reachable in the implemented state space"},
      {"DCS003", Severity::Info,
       "don't-care soundness summary (covers exploiting unreachable rows)"},
      // --- static timing analysis -----------------------------------------
      {"TIM001", Severity::Error,
       "negative slack: controller logic misses the clock period CC_TAU"},
      {"TIM002", Severity::Warning,
       "tight slack: worst path within 10% of the clock period"},
      {"TIM003", Severity::Info, "controller timing summary"},
  };
  return rules;
}

const RuleInfo* findRule(const std::string& code) {
  for (const RuleInfo& r : allRules()) {
    if (code == r.code) return &r;
  }
  return nullptr;
}

std::string Diagnostic::toString() const {
  std::ostringstream os;
  os << severityName(severity) << " " << code << " [" << artifact << "]";
  if (!where.empty()) os << " " << where;
  os << ": " << message;
  return os.str();
}

void Report::add(const std::string& code, const std::string& artifact,
                 const std::string& where, const std::string& message) {
  const RuleInfo* rule = findRule(code);
  TAUHLS_ASSERT(rule != nullptr, "diagnostic uses unregistered rule " + code);
  diags_.push_back(Diagnostic{code, rule->severity, artifact, where, message});
}

void Report::addDiagnostic(const Diagnostic& d) {
  TAUHLS_ASSERT(findRule(d.code) != nullptr,
                "diagnostic uses unregistered rule " + d.code);
  diags_.push_back(d);
}

std::size_t Report::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == severity) ++n;
  }
  return n;
}

bool Report::has(const std::string& code) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

std::vector<Diagnostic> Report::withCode(const std::string& code) const {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags_) {
    if (d.code == code) out.push_back(d);
  }
  return out;
}

void Report::merge(const Report& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::string renderText(const Report& report) {
  std::ostringstream os;
  // Errors first, then warnings and infos, preserving pass order within a
  // severity so related diagnostics stay adjacent.
  for (const Severity sev :
       {Severity::Error, Severity::Warning, Severity::Info}) {
    for (const Diagnostic& d : report.diagnostics()) {
      if (d.severity == sev) os << d.toString() << "\n";
    }
  }
  const std::size_t errors = report.errorCount();
  const std::size_t warnings = report.count(Severity::Warning);
  if (errors == 0 && warnings == 0) {
    os << "clean\n";
  } else {
    os << errors << (errors == 1 ? " error, " : " errors, ") << warnings
       << (warnings == 1 ? " warning" : " warnings") << "\n";
  }
  return os.str();
}

RuleCost satQueryCost(const aig::SatStats& s) {
  RuleCost c;
  c.decisions = s.decisions;
  c.propagations = s.propagations;
  c.conflicts = s.conflicts;
  c.learned = s.learned;
  c.restarts = s.restarts;
  c.queries = 1;
  return c;
}

std::string renderJson(const Report& report, const JsonSections& sections) {
  JsonWriter w;
  w.beginObject();
  w.key("schema").value("tauhls-lint");
  w.key("version").value(kLintJsonVersion);
  w.key("diagnostics").beginArray();
  for (const Diagnostic& d : report.diagnostics()) {
    w.beginObject();
    w.key("code").value(d.code);
    w.key("severity").value(severityName(d.severity));
    w.key("artifact").value(d.artifact);
    w.key("where").value(d.where);
    w.key("message").value(d.message);
    w.endObject();
  }
  w.endArray();
  // Per-rule counts keyed by code, sorted, so CI artifacts diff cleanly
  // across runs and PRs.
  std::map<std::string, std::size_t> byRule;
  for (const Diagnostic& d : report.diagnostics()) ++byRule[d.code];
  w.key("byRule").beginObject();
  for (const auto& [code, n] : byRule) w.key(code).value(n);
  w.endObject();
  w.key("satCost").beginObject();
  for (const auto& [code, cost] : sections.satCost) {
    w.key(code).beginObject();
    w.key("queries").value(cost.queries);
    w.key("simDischarged").value(cost.simDischarged);
    w.key("decisions").value(cost.decisions);
    w.key("propagations").value(cost.propagations);
    w.key("conflicts").value(cost.conflicts);
    w.key("learned").value(cost.learned);
    w.key("restarts").value(cost.restarts);
    w.endObject();
  }
  w.endObject();
  // Per-property symbolic model-check verdicts (schema v4), in engine order
  // (per network, then per rule) so CI artifacts diff cleanly.
  w.key("symbolic").beginArray();
  for (const SymbolicPropertyStat& p : sections.symbolic) {
    w.beginObject();
    w.key("artifact").value(p.artifact);
    w.key("rule").value(p.rule);
    w.key("verdict").value(p.verdict);
    w.key("depthReached").value(p.depthReached);
    w.key("inductionK").value(p.inductionK);
    w.key("conflicts").value(p.cost.conflicts);
    w.key("propagations").value(p.cost.propagations);
    w.key("decisions").value(p.cost.decisions);
    w.key("queries").value(p.cost.queries);
    w.endObject();
  }
  w.endArray();
  // Per-property X-propagation / don't-care-soundness verdicts (schema v5),
  // in engine order so CI artifacts diff cleanly.
  w.key("xprop").beginArray();
  for (const XpropPropertyStat& p : sections.xprop) {
    w.beginObject();
    w.key("artifact").value(p.artifact);
    w.key("rule").value(p.rule);
    w.key("verdict").value(p.verdict);
    w.key("depth").value(p.depth);
    w.key("cexCycle").value(p.cexCycle);
    w.key("instances").value(p.instances);
    w.key("gateEvals").value(p.gateEvals);
    w.key("conflicts").value(p.cost.conflicts);
    w.key("queries").value(p.cost.queries);
    w.endObject();
  }
  w.endArray();
  // Rules the user filtered out with `lint --only`, sorted for stable diffs.
  std::vector<std::string> skipped = sections.skipped;
  std::sort(skipped.begin(), skipped.end());
  w.key("skipped").beginArray();
  for (const std::string& code : skipped) w.value(code);
  w.endArray();
  w.key("errors").value(report.errorCount());
  w.key("warnings").value(report.count(Severity::Warning));
  w.endObject();
  return w.str();
}

}  // namespace tauhls::verify
