// The one BMC + k-induction engine behind every sequential proof of the
// static checker: the symbolic model check (MDL001-MDL005) and don't-care
// reachability (DCS002).
//
// The engine proves a list of safety properties -- "bad literal never holds"
// -- over an aig::SeqModel, sharing one incremental solver across depths and
// properties.  Per depth d it issues, in this order:
//
//   1. BMC for every open property: is bad reachable exactly d steps from
//      reset?  Unsat refutes depth d (the property's depthReached) and the
//      refutation is added as a clause for later frames.
//   2. The invariant base: does the strengthening invariant hold d steps from
//      reset?  A failed or unproven base disables induction (BMC goes on).
//      With no invariant (kLitTrue) this query is never issued.
//   3. The induction step at k = d + 1 for every open property: inv & !bad
//      on k consecutive arbitrary states that form a simple path (pairwise
//      distinct), refuted on the successor.  Unsat closes the property as
//      PROVED with inductionK = k.
//
// A query that exhausts its conflict budget closes its property as UNKNOWN;
// depthReached stays at the last refuted depth.  A satisfiable BMC query
// closes its property with a counterexample: the caller's handler receives a
// per-frame evaluator over the solver's model and renders its own witness.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "aig/aig.hpp"
#include "aig/unroll.hpp"
#include "verify/diagnostic.hpp"

namespace tauhls::verify {

enum class PropertyVerdict : int {
  Proved = 0,          ///< closed by k-induction
  Counterexample = 1,  ///< concrete failing trace found by BMC
  Unknown = 2,         ///< neither within the depth/conflict budget
};

/// Stable name: "PROVED", "CEX", "UNKNOWN".
const char* propertyVerdictName(PropertyVerdict v);

/// Outcome and SAT cost of one property.
struct InductionResult {
  PropertyVerdict verdict = PropertyVerdict::Unknown;
  int depthReached = -1;  ///< deepest BMC frame proven violation-free
  int inductionK = 0;     ///< k that closed the property (0 unless PROVED)
  int cexDepth = -1;      ///< frame where bad holds (-1 unless CEX)
  RuleCost cost;          ///< BMC and induction-step queries
};

struct InductionRun {
  std::vector<InductionResult> properties;  ///< one per bad literal
  bool invariantHolds = true;  ///< every invariant base query refuted
  RuleCost invariantCost;      ///< SAT work of the invariant base queries
};

/// Concrete value of a template literal at one frame of a counterexample.
using FrameEval = std::function<bool(int frame, aig::Lit templateLit)>;

/// Called once per counterexample, while the solver's model is valid:
/// (property index, frame where bad holds, evaluator).  The evaluator is
/// valid only during the call.
using CexHandler =
    std::function<void(std::size_t property, int depth, const FrameEval& eval)>;

/// BMC + k-induction of "bad[p] never holds" for every p over `model`,
/// whose template cones live in `g` (the unrollings grow it).  `invariant`
/// strengthens every induction step and is base-checked from reset, never
/// assumed by BMC; kLitTrue means none.  Depths run 0..maxDepth; each SAT
/// query may spend up to maxConflicts conflicts.
InductionRun proveSafety(aig::Aig& g, const aig::SeqModel& model,
                         const std::vector<aig::Lit>& bad, aig::Lit invariant,
                         int maxDepth, std::uint64_t maxConflicts,
                         const CexHandler& onCounterexample);

}  // namespace tauhls::verify
