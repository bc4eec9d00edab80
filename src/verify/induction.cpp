#include "verify/induction.hpp"

#include <map>
#include <utility>

#include "aig/sat.hpp"

namespace tauhls::verify {

using aig::Lit;

const char* propertyVerdictName(PropertyVerdict v) {
  switch (v) {
    case PropertyVerdict::Proved: return "PROVED";
    case PropertyVerdict::Counterexample: return "CEX";
    case PropertyVerdict::Unknown: return "UNKNOWN";
  }
  return "UNKNOWN";
}

InductionRun proveSafety(aig::Aig& g, const aig::SeqModel& model,
                         const std::vector<Lit>& bad, Lit invariant,
                         int maxDepth, std::uint64_t maxConflicts,
                         const CexHandler& onCounterexample) {
  InductionRun out;
  out.properties.resize(bad.size());
  std::vector<bool> open(bad.size(), true);

  aig::SatSolver solver;
  aig::CnfEncoder enc(g, solver);
  aig::Unroller bmc(g, model, "b", /*initFrame0=*/true);
  aig::Unroller ind(g, model, "i", /*initFrame0=*/false);
  std::vector<Lit> conj;  // what the induction step assumes per frame
  for (const Lit b : bad) conj.push_back(g.andLit(invariant, aig::negate(b)));

  // One query, charged to `cost` with all solver work since `before`: BMC
  // and base queries include the level-0 facts that encoding their new
  // frame derives, step queries only the search.
  auto solve = [&](aig::SatStats before,
                   const std::vector<int>& assumptions, RuleCost& cost) {
    const aig::SatResult res = solver.solve(assumptions, maxConflicts);
    cost += satQueryCost(solver.stats() - before);
    return res;
  };

  // Simple-path difference literals over the free unrolling, built on demand.
  std::map<std::pair<int, int>, int> diffLit;
  auto pathDiff = [&](int i, int j) {
    const auto it = diffLit.find({i, j});
    if (it != diffLit.end()) return it->second;
    const Lit eq = g.eqVec(ind.stateVector(i), ind.stateVector(j));
    const int lit = enc.encode(aig::negate(eq));
    diffLit.emplace(std::make_pair(i, j), lit);
    return lit;
  };

  // Replays the solver's model: the model values of the encoded inputs drive
  // Aig::evaluate, so every cone of every frame -- encoded or not -- gets a
  // consistent concrete value (inputs the model never saw read 0).
  auto counterexample = [&](std::size_t p, int depth) {
    std::vector<bool> vals(g.numInputs(), false);
    for (std::size_t i = 0; i < g.numInputs(); ++i) {
      const int var =
          enc.varIfEncoded(aig::nodeOf(g.findInput(g.inputNames()[i])));
      if (var != 0) vals[i] = solver.modelValue(var);
    }
    const FrameEval eval = [&](int frame, Lit templateLit) {
      const Lit l = bmc.at(frame, templateLit);
      vals.resize(g.numInputs(), false);
      return g.evaluate(l, vals);
    };
    onCounterexample(p, depth, eval);
  };

  enum class InvState { Ok, Broken, Unknown };
  InvState invState = InvState::Ok;
  bool anyOpen = !bad.empty();
  for (int depth = 0; depth <= maxDepth && anyOpen; ++depth) {
    // BMC: is the property violated exactly `depth` steps from reset?
    for (std::size_t p = 0; p < bad.size(); ++p) {
      if (!open[p]) continue;
      InductionResult& r = out.properties[p];
      const aig::SatStats before = solver.stats();
      const int badLit = enc.encode(bmc.at(depth, bad[p]));
      const aig::SatResult res = solve(before, {badLit}, r.cost);
      if (res == aig::SatResult::Unsat) {
        r.depthReached = depth;
        solver.addClause({-badLit});  // implied; helps later frames
        continue;
      }
      open[p] = false;
      if (res == aig::SatResult::Sat) {
        r.verdict = PropertyVerdict::Counterexample;
        r.cexDepth = depth;
        counterexample(p, depth);
      }
    }

    // Invariant base: does the strengthening invariant hold `depth` steps
    // from reset?  Broken or unproven disables induction.
    if (invariant != aig::kLitTrue && invState == InvState::Ok) {
      const aig::SatStats before = solver.stats();
      const int invLit = enc.encode(aig::negate(bmc.at(depth, invariant)));
      const aig::SatResult res = solve(before, {invLit}, out.invariantCost);
      if (res == aig::SatResult::Unsat) {
        solver.addClause({-invLit});
      } else {
        invState = res == aig::SatResult::Sat ? InvState::Broken
                                              : InvState::Unknown;
        out.invariantHolds = false;
      }
    }

    // k-induction step at k = depth + 1: assume inv & !bad on k consecutive
    // arbitrary states forming a simple path, refute it on the successor.
    anyOpen = false;
    const int k = depth + 1;
    for (std::size_t p = 0; p < bad.size(); ++p) {
      if (!open[p] || invState != InvState::Ok) {
        anyOpen = anyOpen || open[p];
        continue;
      }
      InductionResult& r = out.properties[p];
      std::vector<int> assumptions;
      for (int i = 0; i < k; ++i) {
        assumptions.push_back(enc.encode(ind.at(i, conj[p])));
      }
      assumptions.push_back(-enc.encode(ind.at(k, conj[p])));
      for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j <= k; ++j) assumptions.push_back(pathDiff(i, j));
      }
      const aig::SatResult res = solve(solver.stats(), assumptions, r.cost);
      if (res == aig::SatResult::Unsat) {
        r.verdict = PropertyVerdict::Proved;
        r.inductionK = k;
      }
      open[p] = res == aig::SatResult::Sat;
      anyOpen = anyOpen || open[p];
    }
  }
  return out;
}

}  // namespace tauhls::verify
