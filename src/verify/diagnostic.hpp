// Shared diagnostics engine of the static design-rule checker (src/verify/).
//
// Every pass reports through a verify::Report: a flat list of Diagnostics,
// each carrying a *stable rule code* (DFG001, SCH003, FSM007, NET002, ...),
// a severity, the name of the object it anchors to (an op, state, unit,
// signal or net name) and a human-readable message.  Severities are owned by
// the rule registry, not the call site, so a rule's severity is consistent
// everywhere it fires and docs/VERIFY.md can be generated from one table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tauhls::aig {
struct SatStats;
}

namespace tauhls::verify {

enum class Severity : int {
  Info = 0,
  Warning = 1,
  Error = 2,
};

/// Stable lower-case name ("error", "warning", "info").
const char* severityName(Severity severity);

/// One entry of the rule registry; `allRules()` is the single source of truth
/// for codes, severities and the one-line summaries shown in docs and
/// `tauhlsc lint --rules`.
struct RuleInfo {
  const char* code;     ///< e.g. "FSM003"
  Severity severity;
  const char* summary;  ///< one line, starts lower-case
};

/// Every registered rule, ordered by code.
const std::vector<RuleInfo>& allRules();

/// Registry lookup; nullptr for unknown codes.
const RuleInfo* findRule(const std::string& code);

struct Diagnostic {
  std::string code;      ///< registry rule code
  Severity severity = Severity::Error;
  std::string artifact;  ///< artifact checked, e.g. "dfg diffeq", "fsm D_FSM_mult1"
  std::string where;     ///< object name inside the artifact ("" when global)
  std::string message;

  /// "error DFG001 [dfg diffeq] op m3: ..." single-line rendering.
  std::string toString() const;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// Pass-ordered diagnostic sink.  add() resolves the severity from the rule
/// registry; unknown codes are a programming error and throw.
class Report {
 public:
  void add(const std::string& code, const std::string& artifact,
           const std::string& where, const std::string& message);

  /// Append a fully-formed diagnostic (e.g. one re-anchored to a different
  /// artifact); the code must still be registered.
  void addDiagnostic(const Diagnostic& d);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::size_t count(Severity severity) const;
  std::size_t errorCount() const { return count(Severity::Error); }
  bool hasErrors() const { return errorCount() > 0; }

  /// True when some diagnostic carries `code`.
  bool has(const std::string& code) const;
  /// All diagnostics with `code`.
  std::vector<Diagnostic> withCode(const std::string& code) const;

  /// Append every diagnostic of `other`.
  void merge(const Report& other);

  friend bool operator==(const Report& a, const Report& b) {
    return a.diags_ == b.diags_;
  }

 private:
  std::vector<Diagnostic> diags_;
};

/// Multi-line human rendering, errors first, with a trailing summary line
/// ("3 errors, 1 warning" / "clean").
std::string renderText(const Report& report);

/// Version of the JSON lint schema emitted by renderJson; bump when the
/// shape changes so CI artifact diffs are interpretable across PRs.
/// v3 added the per-rule "satCost" section (SAT/simulation work counters).
/// v4 added the per-property "symbolic" section (model-check verdicts with
/// depth reached, induction k and SAT work).
/// v5 added the per-property "xprop" section (X-propagation / don't-care
/// soundness verdicts with reset depth or counterexample cycle) and the
/// "skipped" rule list emitted by `lint --only`.
inline constexpr int kLintJsonVersion = 5;

/// Per-rule solver and simulation work counters, keyed by rule code.  The
/// equivalence checker fills these (EQV001..EQV004) so the cost of each
/// check is observable in the lint JSON and the pipeline trace.
struct RuleCost {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learned = 0;
  std::uint64_t restarts = 0;
  std::uint64_t queries = 0;        ///< SAT queries issued
  std::uint64_t simDischarged = 0;  ///< pairs resolved without building CNF

  RuleCost& operator+=(const RuleCost& o) {
    decisions += o.decisions;
    propagations += o.propagations;
    conflicts += o.conflicts;
    learned += o.learned;
    restarts += o.restarts;
    queries += o.queries;
    simDischarged += o.simDischarged;
    return *this;
  }

  friend bool operator==(const RuleCost&, const RuleCost&) = default;
};

/// The work of one SAT query as a cost row (queries = 1).
RuleCost satQueryCost(const aig::SatStats& s);

/// One row of the lint JSON "symbolic" section (schema v4): the verdict and
/// SAT work of one safety property checked by the symbolic model checker
/// (symbolic_check.hpp), flattened to renderer-friendly fields.
struct SymbolicPropertyStat {
  std::string artifact;   ///< network the property ran on
  std::string rule;       ///< MDL001..MDL005
  std::string verdict;    ///< "PROVED" | "CEX" | "UNKNOWN"
  int depthReached = -1;  ///< deepest BMC frame proven violation-free
  int inductionK = 0;     ///< k that closed the property (0 unless PROVED)
  RuleCost cost;
};

/// One row of the lint JSON "xprop" section (schema v5): the verdict of one
/// X-propagation (XPR001..XPR004) or don't-care-soundness (DCS001..DCS003)
/// property, with the proof depth (reset cycles or induction k) on PROVED
/// and the failing cycle on CEX.
struct XpropPropertyStat {
  std::string artifact;  ///< network / controller the property ran on
  std::string rule;      ///< XPR001..XPR004, DCS001..DCS003
  std::string verdict;   ///< "PROVED" | "CEX" | "UNKNOWN"
  int depth = -1;        ///< reset cycles / induction k that closed the proof
  int cexCycle = -1;     ///< first failing cycle on CEX; -1 otherwise
  std::uint64_t instances = 0;  ///< ternary power-on instances simulated
  std::uint64_t gateEvals = 0;  ///< ternary AND-word evaluations
  RuleCost cost;                ///< SAT work (DCS rules)

  friend bool operator==(const XpropPropertyStat&,
                         const XpropPropertyStat&) = default;
};

/// Everything beyond the diagnostics that renderJson can emit; the fields
/// default empty so call sites fill only the sections their passes ran.
struct JsonSections {
  std::map<std::string, RuleCost> satCost;
  std::vector<SymbolicPropertyStat> symbolic;
  std::vector<XpropPropertyStat> xprop;
  /// Rule codes filtered out by `lint --only`, reported as skipped.
  std::vector<std::string> skipped;
};

/// Machine rendering: {"schema":"tauhls-lint","version":N,
/// "diagnostics":[{code,severity,artifact,where,message}],
/// "byRule":{code:count,...},"satCost":{code:{queries,...},...},
/// "symbolic":[...],"xprop":[...],"skipped":[...],"errors":N,"warnings":N}
/// -- consumed by CI trend tracking.  Sections left empty in `sections`
/// render as empty objects/arrays.
std::string renderJson(const Report& report, const JsonSections& sections = {});

}  // namespace tauhls::verify
