#include "verify/dcs_check.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cec.hpp"
#include "aig/unroll.hpp"
#include "common/parallel.hpp"
#include "synth/extract.hpp"
#include "verify/induction.hpp"
#include "verify/lowering.hpp"

namespace tauhls::verify {

namespace {

using aig::Lit;
using lowering::ControllerContext;
using lowering::describeCounterexample;
using lowering::FnMap;

/// The state a counterexample frame decodes to ("<code n>" off the encoding).
std::string stateAt(const ControllerContext& ctx, const FrameEval& eval,
                    int frame) {
  std::uint64_t code = 0;
  for (std::size_t b = 0; b < ctx.stateBits.size(); ++b) {
    if (eval(frame, ctx.stateBits[b])) code |= std::uint64_t{1} << b;
  }
  const int s = ctx.enc.stateOf(code);
  if (s >= 0) return ctx.fsm->stateName(s);
  return "<code " + std::to_string(code) + ">";
}

/// "\n  cycle f: state=Sx in1=0 ..." rows of frames 0..depth; the final
/// frame lands on the don't-care row.
std::string waveform(const ControllerContext& ctx, const FrameEval& eval,
                     int depth) {
  std::ostringstream os;
  for (int f = 0; f <= depth; ++f) {
    os << "\n  cycle " << f << ": state=" << stateAt(ctx, eval, f);
    for (const std::string& in : ctx.fsm->inputs()) {
      os << " " << in << "=" << (eval(f, ctx.inputOf.at(in)) ? "1" : "0");
    }
  }
  return os.str();
}

}  // namespace

std::map<std::string, RuleCost> DcsStats::ruleCost() const {
  std::map<std::string, RuleCost> out;
  for (const XpropPropertyStat& p : properties) out[p.rule] += p.cost;
  return out;
}

DcsStats& DcsStats::operator+=(const DcsStats& o) {
  controllers += o.controllers;
  functionsChecked += o.functionsChecked;
  dcFunctions += o.dcFunctions;
  properties.insert(properties.end(), o.properties.begin(),
                    o.properties.end());
  return *this;
}

DcsStats checkDcsFsm(const fsm::Fsm& fsm, const std::string& artifact,
                     Report& report, const DcsOptions& options) {
  DcsStats stats;
  stats.artifact = artifact;
  stats.controllers = 1;

  ControllerContext ctx(fsm, options.style);
  const std::vector<bool> reachable = synth::reachableStates(fsm);
  // The exact care predicate synthesize() minimized against: a row is care
  // iff its state-bit pattern decodes to a reachable state.
  Lit careLit = aig::kLitFalse;
  std::size_t careStates = 0;
  for (std::size_t s = 0; s < fsm.numStates(); ++s) {
    if (!reachable[s]) continue;
    careLit = ctx.g.orLit(
        careLit, lowering::stateMatch(ctx.g, ctx.enc, ctx.stateBits,
                                      static_cast<int>(s)));
    ++careStates;
  }

  const auto over = options.coverOverrides.find(fsm.name());
  const synth::SynthesizedFsm syn = over != options.coverOverrides.end()
                                        ? over->second
                                        : synth::synthesize(fsm, options.style);
  FnMap spec = lowering::specFunctions(ctx);
  FnMap cover = lowering::coverFunctions(ctx, syn);
  stats.functionsChecked += spec.size();

  // DCS001: on care rows the minimized cover must equal the specification.
  XpropPropertyStat careRow;
  careRow.artifact = artifact;
  careRow.rule = "DCS001";
  careRow.verdict = propertyVerdictName(PropertyVerdict::Proved);
  careRow.depth = 0;
  XpropPropertyStat dcRow;
  dcRow.artifact = artifact;
  dcRow.rule = "DCS003";
  dcRow.verdict = propertyVerdictName(PropertyVerdict::Proved);
  std::vector<bool> careEqual(spec.size(), false);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const aig::CecResult r = aig::proveEquivalent(
        ctx.g, spec[i].second, cover[i].second, careLit, options.maxConflicts);
    careRow.cost += satQueryCost(r.stats);
    if (r.status == aig::SatResult::Unsat) {
      careEqual[i] = true;
    } else if (r.status == aig::SatResult::Sat) {
      careRow.verdict = propertyVerdictName(PropertyVerdict::Counterexample);
      careRow.cexCycle = 0;
      report.add("DCS001", artifact, spec[i].first,
                 "minimized cover differs from the FSM specification on a "
                 "reachable (care) row: " +
                     describeCounterexample(ctx, r) +
                     "; the minimizer changed observable behaviour, not just "
                     "don't-cares");
    } else if (careRow.cexCycle < 0) {
      careRow.verdict = propertyVerdictName(PropertyVerdict::Unknown);
    }
    // Does this cover actually *exploit* a don't-care row?  (Differs
    // globally while agreeing on the care set.)
    const aig::CecResult g = aig::proveEquivalent(
        ctx.g, spec[i].second, cover[i].second, aig::kLitTrue,
        options.maxConflicts);
    dcRow.cost += satQueryCost(g.stats);
    if (careEqual[i] && g.status == aig::SatResult::Sat) ++stats.dcFunctions;
  }
  stats.properties.push_back(careRow);

  // DCS002: in the state space the *implemented* covers induce, is a
  // don't-care row (an unreachable or undecodable state code) reachable from
  // the encoded initial state?  BMC finds the driving input sequence;
  // k-induction closes the proof -- at k = 1 when DCS001 holds, because then
  // the care set is inductive (cover == spec on care rows and the spec maps
  // reachable states to reachable states).
  XpropPropertyStat reachRow;
  reachRow.artifact = artifact;
  reachRow.rule = "DCS002";
  aig::SeqModel seq;
  for (std::size_t b = 0; b < ctx.stateBits.size(); ++b) {
    seq.vars.push_back({"state" + std::to_string(b), ctx.stateBits[b],
                        cover[b].second,
                        ctx.enc.codeBit(fsm.initial(), static_cast<int>(b))});
  }
  const InductionRun run = proveSafety(
      ctx.g, seq, {aig::negate(careLit)}, aig::kLitTrue,
      options.maxDepth, options.maxConflicts,
      [&](std::size_t, int depth, const FrameEval& eval) {
        report.add("DCS002", artifact, stateAt(ctx, eval, depth),
                   "the implemented next-state covers reach a don't-care row "
                   "after " +
                       std::to_string(depth) +
                       " cycle(s) -- a row the minimizer assumed impossible "
                       "(care set: " +
                       std::to_string(careStates) + " of " +
                       std::to_string(fsm.numStates()) + " states):" +
                       waveform(ctx, eval, depth));
      });
  const InductionResult& reach = run.properties.front();
  reachRow.verdict = propertyVerdictName(reach.verdict);
  if (reach.verdict == PropertyVerdict::Proved) {
    reachRow.depth = reach.inductionK;
  }
  reachRow.cexCycle = reach.cexDepth;
  reachRow.cost = reach.cost;
  stats.properties.push_back(reachRow);

  // DCS003: info summary -- and the certification statement when everything
  // above proved out.
  dcRow.depth = reachRow.depth;
  stats.properties.push_back(dcRow);
  const bool proved =
      careRow.verdict == propertyVerdictName(PropertyVerdict::Proved) &&
      reachRow.verdict == propertyVerdictName(PropertyVerdict::Proved);
  if (proved) {
    report.add("DCS003", artifact, "",
               std::to_string(stats.dcFunctions) + " of " +
                   std::to_string(stats.functionsChecked) +
                   " minimized cover(s) exploit don't-care rows; every "
                   "divergence is confined to rows proven unreachable "
                   "(k-induction closed at k=" +
                   std::to_string(reachRow.depth) + ")");
  }
  return stats;
}

DcsStats checkDcs(const fsm::DistributedControlUnit& dcu,
                  const std::string& artifact, Report& report,
                  const DcsOptions& options) {
  std::vector<DcsStats> perController(dcu.controllers.size());
  std::vector<Report> perReport(dcu.controllers.size());
  common::parallelFor(dcu.controllers.size(), [&](std::size_t i) {
    // Per-controller anchors ("fsm <name>"), matching the equivalence
    // checker's convention, so DCS and EQV diagnostics line up.
    perController[i] =
        checkDcsFsm(dcu.controllers[i].fsm,
                    "fsm " + dcu.controllers[i].fsm.name(), perReport[i],
                    options);
  });
  DcsStats stats;
  stats.artifact = artifact;
  for (std::size_t i = 0; i < dcu.controllers.size(); ++i) {
    stats += perController[i];
    report.merge(perReport[i]);
  }
  return stats;
}

}  // namespace tauhls::verify
