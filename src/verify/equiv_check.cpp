#include "verify/equiv_check.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/bitsim.hpp"
#include "aig/cec.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "rtl/verilog.hpp"
#include "synth/extract.hpp"
#include "verify/lowering.hpp"
#include "vsim/parser.hpp"

namespace tauhls::verify {

namespace {

using aig::Aig;
using aig::kLitFalse;
using aig::kLitTrue;
using aig::Lit;

// The four representation lowerings are shared with the X-propagation and
// don't-care-soundness passes (verify/lowering.hpp).
using lowering::ControllerContext;
using lowering::coverFunctions;
using lowering::describeCounterexample;
using lowering::FnMap;
using lowering::netlistFunctions;
using lowering::rtlFunctions;
using lowering::specFunctions;
using lowering::SymbolicEval;

/// Random 64-pattern simulation words seeded per controller before the
/// first query (Incremental engine only).
constexpr std::size_t kSimWords = 8;

/// Per-controller proof engine.  The Incremental path front-ends every query
/// with bit-parallel simulation (a simulated mismatch *is* the
/// counterexample, no CNF ever exists for it), memoizes proven-equal
/// literals in a union-find, and sends the survivors to one shared
/// incremental SAT solver whose encoded cones and learned clauses persist
/// across the controller's whole query stream.  Every model the solver finds
/// is fed back to the simulator as a guided pattern word
/// (counterexample-directed refinement).  The Naive path is the reference:
/// a fresh solver per pair via aig::proveEquivalent.  Both return identical
/// verdicts; only the work counters and counterexample patterns differ.
struct Prover {
  ControllerContext& ctx;
  const EquivOptions& options;
  std::optional<aig::IncrementalCec> inc;
  std::optional<aig::BitSimulator> sim;
  std::map<Lit, Lit> parent;  ///< union-find over proven-equal literals

  Prover(ControllerContext& c, const EquivOptions& o) : ctx(c), options(o) {
    if (options.engine == EquivEngine::Incremental) {
      inc.emplace(ctx.g);
      sim.emplace(ctx.g);
      sim->addRandomWords(kSimWords);
    }
  }

  Lit find(Lit l) {
    const auto it = parent.find(l);
    if (it == parent.end() || it->second == l) return l;
    return it->second = find(it->second);
  }
  void unite(Lit a, Lit b) { parent[find(a)] = find(b); }

  aig::CecResult prove(Lit ref, Lit cand, RuleCost& cost) {
    if (!inc) {
      const aig::CecResult r = aig::proveEquivalent(
          ctx.g, ref, cand, ctx.valid, options.maxConflicts);
      cost += satQueryCost(r.stats);
      return r;
    }
    aig::CecResult r;
    if (ref == cand || find(ref) == find(cand)) {
      r.status = aig::SatResult::Unsat;
      ++cost.simDischarged;
      return r;
    }
    const Lit miter = ctx.g.andLit(ctx.valid, ctx.g.xorLit(ref, cand));
    if (miter == kLitFalse) {
      r.status = aig::SatResult::Unsat;
      unite(ref, cand);
      ++cost.simDischarged;
      return r;
    }
    if (const auto mm = sim->findMismatch(ref, cand, ctx.valid)) {
      r.status = aig::SatResult::Sat;
      for (const std::size_t in : ctx.g.support(miter)) {
        r.counterexample.emplace_back(ctx.g.inputNames()[in],
                                      sim->inputBit(in, mm->word, mm->bit));
      }
      ++cost.simDischarged;
      return r;
    }
    r = inc->prove(ref, cand, ctx.valid, options.maxConflicts);
    cost += satQueryCost(r.stats);
    if (r.status == aig::SatResult::Unsat) {
      unite(ref, cand);
    } else if (r.status == aig::SatResult::Sat) {
      // Refinement: pin the model in a guided word so every other pair this
      // assignment distinguishes is discharged by simulation from now on.
      std::vector<std::pair<std::size_t, bool>> pattern;
      for (const auto& [name, value] : r.counterexample) {
        const Lit in = ctx.g.findInput(name);
        if (in != kLitFalse) {
          pattern.emplace_back(ctx.g.inputIndexOf(aig::nodeOf(in)), value);
        }
      }
      sim->addPatternWord(pattern);
    }
    return r;
  }
};

/// Compare two function families pairwise under the valid-state constraint;
/// returns the number of proven mismatches.
int compareFns(Prover& prover, const FnMap& reference, const FnMap& candidate,
               const std::string& code, const std::string& stagePair,
               const std::string& artifact, Report& report,
               EquivStats& stats) {
  ControllerContext& ctx = prover.ctx;
  std::map<std::string, Lit> candidateOf(candidate.begin(), candidate.end());
  int mismatches = 0;
  for (const auto& [name, refLit] : reference) {
    const auto it = candidateOf.find(name);
    if (it == candidateOf.end()) {
      report.add(code, artifact, name,
                 stagePair + ": function missing from the checked "
                 "representation");
      ++mismatches;
      continue;
    }
    const aig::CecResult r =
        prover.prove(refLit, it->second, stats.ruleCost[code]);
    ++stats.functionsCompared;
    stats.satConflicts += r.stats.conflicts;
    if (r.status == aig::SatResult::Unsat) continue;
    if (r.status == aig::SatResult::Sat) {
      report.add(code, artifact, name,
                 stagePair + " differ at " + describeCounterexample(ctx, r));
      ++mismatches;
    } else {
      report.add("EQV005", artifact, name,
                 stagePair + ": conflict budget (" +
                     std::to_string(prover.options.maxConflicts) +
                     ") exhausted");
    }
  }
  return mismatches;
}

std::string fsmArtifact(const fsm::Fsm& f) { return "fsm " + f.name(); }

}  // namespace

EquivStats checkControllerChain(const fsm::Fsm& fsm, Report& report,
                                const EquivOptions& options) {
  EquivStats stats;
  stats.controllers = 1;
  ControllerContext ctx(fsm, options.style);
  Prover prover(ctx, options);
  const std::string artifact = fsmArtifact(fsm);

  const FnMap spec = specFunctions(ctx);
  const synth::SynthesizedFsm syn = synth::synthesize(fsm, options.style);
  const FnMap cover = coverFunctions(ctx, syn);
  int bad = compareFns(prover, spec, cover, "EQV001",
                       "FSM spec vs minimized cover", artifact, report, stats);

  const netlist::ControllerNetlist cn =
      netlist::buildControllerNetlist(fsm, options.style, syn);
  const FnMap nl = netlistFunctions(ctx, cn.net);
  bad += compareFns(prover, cover, nl, "EQV002",
                    "minimized cover vs gate netlist", artifact, report,
                    stats);

  // The RTL stage exists only under binary encoding: emitFsm always encodes
  // binary, so a one-hot context has no RTL counterpart to compare against.
  if (options.style == synth::EncodingStyle::Binary) {
    FnMap rtl;
    bool rtlOk = true;
    try {
      const vsim::Design design =
          vsim::parseDesign(rtl::emitFsm(fsm, fsm.name()));
      const vsim::Module* m = design.findModule(fsm.name());
      TAUHLS_CHECK(m != nullptr, "emitted module not found after reparse");
      rtl = rtlFunctions(ctx, *m);
    } catch (const Error& e) {
      report.add("EQV003", artifact, "",
                 std::string("emitted Verilog failed symbolic reparse: ") +
                     e.what());
      rtlOk = false;
      ++bad;
    }
    if (rtlOk) {
      bad += compareFns(prover, nl, rtl, "EQV003",
                        "gate netlist vs reparsed RTL", artifact, report,
                        stats);
    }
  }

  if (bad == 0) {
    report.add("EQV006", artifact, "",
               "proven equivalent end to end (spec = cover = netlist = RTL, " +
                   std::to_string(stats.functionsCompared) + " functions)");
  }
  return stats;
}

void checkControllerNetlist(const fsm::Fsm& fsm,
                            const netlist::ControllerNetlist& cn,
                            Report& report, const EquivOptions& options) {
  ControllerContext ctx(fsm, options.style);
  Prover prover(ctx, options);
  EquivStats stats;
  const synth::SynthesizedFsm syn = synth::synthesize(fsm, options.style);
  const FnMap cover = coverFunctions(ctx, syn);
  const FnMap nl = netlistFunctions(ctx, cn.net);
  compareFns(prover, cover, nl, "EQV002", "minimized cover vs gate netlist",
             fsmArtifact(fsm), report, stats);
}

void checkControllerRtl(const fsm::Fsm& fsm, const std::string& source,
                        const std::string& moduleName, Report& report,
                        const EquivOptions& options) {
  ControllerContext ctx(fsm, options.style);
  Prover prover(ctx, options);
  EquivStats stats;
  const FnMap spec = specFunctions(ctx);
  try {
    const vsim::Design design = vsim::parseDesign(source);
    const vsim::Module* m = design.findModule(moduleName);
    TAUHLS_CHECK(m != nullptr, "module '" + moduleName + "' not in source");
    const FnMap rtl = rtlFunctions(ctx, *m);
    compareFns(prover, spec, rtl, "EQV003", "FSM spec vs reparsed RTL",
               fsmArtifact(fsm), report, stats);
  } catch (const Error& e) {
    report.add("EQV003", fsmArtifact(fsm), "",
               std::string("emitted Verilog failed symbolic reparse: ") +
                   e.what());
  }
}

void checkCompletionLatch(const std::string& packageSource, Report& report,
                          EquivStats* stats) {
  const std::string artifact = "rtl tauhls_completion_latch";
  try {
    const vsim::Design design = vsim::parseDesign(packageSource);
    const vsim::Module* m = design.findModule("tauhls_completion_latch");
    TAUHLS_CHECK(m != nullptr, "completion-latch module missing from package");

    Aig g;
    const Lit held = g.addInput("held");
    const Lit pulse = g.addInput("pulse");
    const Lit rst = g.addInput("rst");
    const Lit restart = g.addInput("restart");
    SymbolicEval eval(g, *m);
    SymbolicEval::Env env = {{"held", {held}},
                             {"pulse", {pulse}},
                             {"rst", {rst}},
                             {"restart", {restart}}};
    eval.runCombinational(env);

    const auto level = env.find("level");
    TAUHLS_CHECK(level != env.end(), "latch never drives 'level'");
    const aig::CecResult levelCec = aig::proveEquivalent(
        g, eval.nonzero(level->second), lowering::latchLevel(g, held, pulse));
    if (stats != nullptr) {
      stats->ruleCost["EQV004"] += satQueryCost(levelCec.stats);
    }
    if (!levelCec.equivalent()) {
      report.add("EQV004", artifact, "level",
                 "level function is not held | pulse");
    }

    SymbolicEval::Env seq = env;
    eval.runSequential(seq);
    const auto heldNext = seq.find("held");
    TAUHLS_CHECK(heldNext != seq.end(), "latch never updates 'held'");
    const aig::CecResult heldCec = aig::proveEquivalent(
        g, eval.nonzero(heldNext->second),
        lowering::latchNext(g, held, pulse, g.orLit(rst, restart)));
    if (stats != nullptr) {
      stats->ruleCost["EQV004"] += satQueryCost(heldCec.stats);
    }
    if (!heldCec.equivalent()) {
      report.add("EQV004", artifact, "held",
                 "held update is not !rst & !restart & (pulse | held)");
    }
  } catch (const Error& e) {
    report.add("EQV004", artifact, "",
               std::string("latch check failed: ") + e.what());
  }
}

Report checkEquivalence(const fsm::DistributedControlUnit& dcu,
                        const EquivOptions& options, EquivStats* stats) {
  // Portfolio: every controller chain is independent (its own context, its
  // own solver), so they run concurrently; merging in controller order keeps
  // the report and stats identical for every thread count.
  const std::size_t n = dcu.controllers.size();
  std::vector<Report> reports(n);
  std::vector<EquivStats> perController(n);
  common::parallelFor(n, [&](std::size_t i) {
    perController[i] =
        checkControllerChain(dcu.controllers[i].fsm, reports[i], options);
  });
  Report report;
  EquivStats total;
  for (std::size_t i = 0; i < n; ++i) {
    report.merge(reports[i]);
    total += perController[i];
  }
  checkCompletionLatch(rtl::emitPackage(dcu, "tauhls_equiv_probe"), report,
                       &total);
  if (stats != nullptr) *stats = total;
  return report;
}

struct EquivWorkload::Impl {
  struct Job {
    std::unique_ptr<ControllerContext> ctx;
    /// (rule code, reference, candidate), in compareFns order.
    std::vector<std::tuple<std::string, Lit, Lit>> queries;
  };
  std::vector<Job> jobs;
  int pairs = 0;
};

EquivWorkload::EquivWorkload(const fsm::DistributedControlUnit& dcu,
                             const EquivOptions& options)
    : impl_(std::make_unique<Impl>()) {
  for (const auto& controller : dcu.controllers) {
    const fsm::Fsm& fsm = controller.fsm;
    Impl::Job job;
    job.ctx = std::make_unique<ControllerContext>(fsm, options.style);
    ControllerContext& ctx = *job.ctx;

    const FnMap spec = specFunctions(ctx);
    const synth::SynthesizedFsm syn = synth::synthesize(fsm, options.style);
    const FnMap cover = coverFunctions(ctx, syn);
    const netlist::ControllerNetlist cn =
        netlist::buildControllerNetlist(fsm, options.style, syn);
    const FnMap nl = netlistFunctions(ctx, cn.net);

    const auto pairUp = [&job](const FnMap& reference, const FnMap& candidate,
                               const char* code) {
      const std::map<std::string, Lit> candidateOf(candidate.begin(),
                                                   candidate.end());
      for (const auto& [name, refLit] : reference) {
        const auto it = candidateOf.find(name);
        if (it != candidateOf.end()) {
          job.queries.emplace_back(code, refLit, it->second);
        }
      }
    };
    pairUp(spec, cover, "EQV001");
    pairUp(cover, nl, "EQV002");
    if (options.style == synth::EncodingStyle::Binary) {
      // A reparse failure is checkEquivalence's diagnostic to raise; the
      // kernel workload simply has no EQV003 pairs for that controller.
      try {
        const vsim::Design design =
            vsim::parseDesign(rtl::emitFsm(fsm, fsm.name()));
        if (const vsim::Module* m = design.findModule(fsm.name())) {
          pairUp(nl, rtlFunctions(ctx, *m), "EQV003");
        }
      } catch (const Error&) {
      }
    }
    impl_->pairs += static_cast<int>(job.queries.size());
    impl_->jobs.push_back(std::move(job));
  }
}

EquivWorkload::~EquivWorkload() = default;

int EquivWorkload::pairs() const { return impl_->pairs; }

EquivWorkload::Verdicts EquivWorkload::prove(const EquivOptions& options,
                                             EquivStats* stats) {
  Verdicts verdicts;
  EquivStats total;
  for (Impl::Job& job : impl_->jobs) {
    EquivStats s;
    s.controllers = 1;
    Prover prover(*job.ctx, options);
    for (const auto& [code, ref, cand] : job.queries) {
      const aig::CecResult r = prover.prove(ref, cand, s.ruleCost[code]);
      ++s.functionsCompared;
      s.satConflicts += r.stats.conflicts;
      switch (r.status) {
        case aig::SatResult::Unsat:
          ++verdicts.proven;
          break;
        case aig::SatResult::Sat:
          ++verdicts.refuted;
          break;
        default:
          ++verdicts.unknown;
          break;
      }
    }
    total += s;
  }
  if (stats != nullptr) *stats = total;
  return verdicts;
}

}  // namespace tauhls::verify
