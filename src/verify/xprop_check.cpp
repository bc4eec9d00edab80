#include "verify/xprop_check.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/ternary.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "rtl/verilog.hpp"
#include "synth/encoding.hpp"
#include "verify/lowering.hpp"
#include "verify/symbolic_check.hpp"
#include "vsim/elaborate.hpp"
#include "vsim/parser.hpp"

namespace tauhls::verify {

namespace {

using aig::Aig;
using aig::kLitFalse;
using aig::kLitTrue;
using aig::Lit;
using aig::TernaryEvaluator;
using aig::XWord;

/// The module name the XPR002 replay drives (and rtlOverride must define).
constexpr const char* kXpropTopName = "tauhls_xprop_top";

/// Seed of every pseudo-random input pattern ("xprop").
constexpr std::uint64_t kSeed = 0x7870726f70ull;

/// Concrete power-on instances replayed against the emitted RTL, on top of
/// the all-X proof replay.
constexpr int kRtlInstances = 3;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic per-(input, word, cycle) pattern word, bitsim-style keying.
std::uint64_t inputWordFor(std::uint64_t seed, std::size_t input,
                           std::size_t word, int cycle) {
  return splitmix64(seed ^ splitmix64(input * 0x100000001b3ull + 1) ^
                    splitmix64(word * 0xc2b2ae3d27d4eb4full + 2) ^
                    splitmix64(static_cast<std::uint64_t>(cycle) *
                                   0x9e3779b97f4a7c15ull +
                               3));
}

// --- the sequential network model ------------------------------------------

/// One register of the model: an AIG input standing for the current value
/// plus the cone computing the next one.
struct ModelReg {
  std::string artifact;   ///< diagnostic anchor ("fsm <n>" / "latch <sig>")
  std::string name;       ///< "state<b>" / "held"
  std::size_t input = 0;  ///< AIG input index of `cur`
  Lit cur = kLitFalse;
  Lit next = kLitFalse;
};

/// A combinational observable (pulse, level, controller output).
struct ModelProbe {
  std::string artifact;
  std::string name;
  Lit lit = kLitFalse;
};

/// Per-controller grouping of the encoded state registers (XPR002 packs
/// them against the RTL's multi-bit state register).
struct StateGroup {
  std::string fsmName;
  std::vector<std::size_t> regIdx;  ///< LSB first
};

struct NetModel {
  Aig g;
  Lit rst = g.addInput("rst");
  Lit restart = g.addInput("restart");
  std::size_t rstIdx = g.inputIndexOf(aig::nodeOf(rst));
  std::size_t restartIdx = g.inputIndexOf(aig::nodeOf(restart));
  /// Free per-cycle inputs (C_* completions; DN_*_pulse / SEL_* for the
  /// sequencer model), with their AIG input indices.
  std::vector<std::pair<std::string, std::size_t>> freeIns;
  std::vector<ModelReg> regs;
  std::vector<ModelProbe> probes;
  std::vector<StateGroup> stateGroups;
  std::map<std::string, std::size_t> heldRegOf;   ///< signal -> reg index
  std::map<std::string, std::size_t> probeIdxOf;  ///< probe name -> index
};

Lit addFree(NetModel& m, const std::string& name) {
  const Lit l = m.g.addInput(name);
  m.freeIns.emplace_back(name, m.g.inputIndexOf(aig::nodeOf(l)));
  return l;
}

std::size_t addReg(NetModel& m, const std::string& artifact,
                   const std::string& name, const std::string& inputName) {
  ModelReg r;
  r.artifact = artifact;
  r.name = name;
  r.cur = m.g.addInput(inputName);
  r.input = m.g.inputIndexOf(aig::nodeOf(r.cur));
  m.regs.push_back(std::move(r));
  return m.regs.size() - 1;
}

void addProbe(NetModel& m, const std::string& artifact, const std::string& name,
              Lit lit) {
  m.probeIdxOf.emplace(name, m.probes.size());
  m.probes.push_back({artifact, name, lit});
}

/// The encoded state registers of `f` (LSB first) as one StateGroup;
/// returns their current-value literals.
std::vector<Lit> addStateRegs(NetModel& m, const std::string& artifact,
                              const fsm::Fsm& f, int bits) {
  StateGroup group{f.name(), {}};
  std::vector<Lit> cur;
  for (int b = 0; b < bits; ++b) {
    const std::size_t r = addReg(m, artifact, "state" + std::to_string(b),
                                 f.name() + ".state" + std::to_string(b));
    cur.push_back(m.regs[r].cur);
    group.regIdx.push_back(r);
  }
  m.stateGroups.push_back(std::move(group));
  return cur;
}

/// Flat network model: the registers of every controller and one completion
/// latch per consumed signal around lowering::networkStep's cycle cones,
/// wired exactly as rtl::emitDistributedTop wires them.
NetModel buildFlatModel(const fsm::DistributedControlUnit& dcu,
                        synth::EncodingStyle style, const XprOptions& opt) {
  NetModel m;
  for (const std::string& in : dcu.externalInputs) addFree(m, in);

  // Registers first (they are the template inputs): encoded state bits per
  // controller, one held bit per consumed signal.
  std::vector<synth::Encoding> encs;
  std::vector<std::vector<Lit>> stateCur(dcu.controllers.size());
  for (std::size_t i = 0; i < dcu.controllers.size(); ++i) {
    const fsm::Fsm& f = dcu.controllers[i].fsm;
    const synth::Encoding& enc =
        encs.emplace_back(synth::encodeStates(f, style));
    stateCur[i] = addStateRegs(m, "fsm " + f.name(), f, enc.bits);
  }
  std::map<std::string, Lit> held;
  for (const auto& [sig, users] : dcu.consumersOf) {
    m.heldRegOf[sig] = addReg(m, "latch " + sig, "held", sig + ".held");
    held[sig] = m.regs[m.heldRegOf[sig]].cur;
  }

  // Completion pulses can cascade within one clock (the signal graph may
  // even be structurally cyclic, AR-lattice); networkStep unrolls the
  // fixpoint the emitted RTL settles to.  Inputs nobody drives become free.
  const lowering::NetworkCones net = lowering::networkStep(
      m.g, dcu, encs, stateCur, held, [&](const std::string& in) {
        const Lit l = m.g.findInput(in);
        return l != kLitFalse ? l : addFree(m, in);
      });

  // Register next-state cones and probes.
  std::size_t reg = 0;
  for (std::size_t i = 0; i < dcu.controllers.size(); ++i) {
    const fsm::Fsm& f = dcu.controllers[i].fsm;
    const synth::Encoding& enc = encs[i];
    const bool noReset = opt.controllersWithoutStateReset.contains(f.name());
    for (int b = 0; b < enc.bits; ++b, ++reg) {
      const Lit initBit = enc.codeBit(f.initial(), b) ? kLitTrue : kLitFalse;
      const Lit ns = net.fns[i][static_cast<std::size_t>(b)].second;
      m.regs[reg].next = noReset ? ns : m.g.muxLit(m.rst, initBit, ns);
    }
    for (std::size_t o = stateCur[i].size(); o < net.fns[i].size(); ++o) {
      addProbe(m, "fsm " + f.name(), net.fns[i][o].first, net.fns[i][o].second);
    }
  }
  for (const auto& [sig, r] : m.heldRegOf) {
    const Lit pulse = net.pulse.at(sig);
    const Lit clear = opt.latchesWithoutReset.contains(sig)
                          ? m.restart
                          : m.g.orLit(m.rst, m.restart);
    m.regs[r].next = lowering::latchNext(m.g, m.regs[r].cur, pulse, clear);
    addProbe(m, "latch " + sig, sig + "_pulse", pulse);
    addProbe(m, "latch " + sig, sig + "_level",
             lowering::latchLevel(m.g, m.regs[r].cur, pulse));
  }
  return m;
}

/// Region-sequencer model: the sequencer FSM plus one handshake latch per
/// DN_<path> input.  Leaf completion pulses and branch selects are free
/// inputs (the leaves are proven separately); a DN latch clears on rst and
/// on its own re-arm pulse ST_<path>.
NetModel buildSequencerModel(const fsm::HierarchicalControlUnit& hcu,
                             synth::EncodingStyle style,
                             const XprOptions& opt) {
  NetModel m;
  const fsm::Fsm& seq = hcu.sequencer;
  const synth::Encoding enc = synth::encodeStates(seq, style);
  const std::vector<Lit> stateCur =
      addStateRegs(m, "sequencer " + seq.name(), seq, enc.bits);

  std::vector<std::string> doneInputs;
  for (const std::string& in : seq.inputs()) {
    if (in.starts_with("DN_")) {
      doneInputs.push_back(in);
      m.heldRegOf[in] = addReg(m, "latch " + in, "held", in + ".held");
      addFree(m, in + "_pulse");
    } else {
      addFree(m, in);
    }
  }
  std::map<std::string, Lit> inputOf;
  for (const std::string& in : seq.inputs()) {
    inputOf[in] = in.starts_with("DN_")
                      ? lowering::latchLevel(m.g,
                                             m.regs[m.heldRegOf.at(in)].cur,
                                             m.g.findInput(in + "_pulse"))
                      : m.g.findInput(in);
  }

  const lowering::FnMap fns = lowering::rtlFsmFunctions(
      m.g, seq, enc, stateCur,
      [&](const std::string& sig) { return inputOf.at(sig); });
  for (int b = 0; b < enc.bits; ++b) {
    const Lit initBit = enc.codeBit(seq.initial(), b) ? kLitTrue : kLitFalse;
    m.regs[static_cast<std::size_t>(b)].next = m.g.muxLit(
        m.rst, initBit, fns[static_cast<std::size_t>(b)].second);
  }
  std::map<std::string, Lit> outputOf;
  for (std::size_t o = stateCur.size(); o < fns.size(); ++o) {
    addProbe(m, "sequencer " + seq.name(), fns[o].first, fns[o].second);
    outputOf.emplace(fns[o]);
  }
  for (const std::string& in : doneInputs) {
    const std::size_t r = m.heldRegOf.at(in);
    const Lit pulse = m.g.findInput(in + "_pulse");
    // Re-arming a leaf clears its stale completion; the mutation seam drops
    // the rst arc, so the latch keeps its power-on X until the (X-guarded)
    // re-arm -- exactly the wait-state init bug XPR003 exists to catch.
    const auto st = outputOf.find("ST_" + in.substr(3));
    const Lit rearm = st != outputOf.end() ? st->second : kLitFalse;
    const Lit clear = opt.doneLatchesWithoutInit.contains(in)
                          ? rearm
                          : m.g.orLit(m.rst, rearm);
    m.regs[r].next = lowering::latchNext(m.g, m.regs[r].cur, pulse, clear);
    addProbe(m, "latch " + in, in + "_level",
             lowering::latchLevel(m.g, m.regs[r].cur, pulse));
  }
  return m;
}

// --- the bit-parallel ternary run ------------------------------------------

/// Cycle the restart strobe fires after the reset window.
int restartCycleFor(int r) { return r + 2; }

struct RunFailure {
  bool isReg = false;
  std::size_t idx = 0;  ///< reg or probe index
  int cycle = 0;

  friend bool operator<(const RunFailure& a, const RunFailure& b) {
    return std::tie(a.cycle, a.isReg, a.idx) <
           std::tie(b.cycle, b.isReg, b.idx);
  }
};

struct RunResult {
  std::vector<RunFailure> failures;  ///< merged in word order, then sorted
  std::uint64_t gateEvals = 0;
  /// Word-0 traces for counterexample rendering, one XWord per cycle.
  std::vector<std::vector<XWord>> regTrace;    ///< [reg][cycle]
  std::vector<std::vector<XWord>> probeTrace;  ///< [probe][cycle]
  std::vector<XWord> rstTrace, restartTrace;
  std::vector<std::vector<XWord>> freeTrace;  ///< [free input][cycle]
};

/// Simulate `totalCycles` cycles under the reset protocol with r reset
/// cycles.  All registers start all-X in every lane; lane 0 of word 0 also
/// drives every free input X (the subsuming proof lane).  Words run
/// concurrently and merge in index order, so the result is identical for
/// every thread count.
RunResult runTernary(const NetModel& m, int r, int totalCycles,
                     const XprOptions& opt) {
  const std::size_t words = static_cast<std::size_t>(std::max(1, opt.words));
  const int restartAt = restartCycleFor(r);
  std::vector<std::vector<RunFailure>> perWord(words);
  std::vector<std::uint64_t> evals(words, 0);
  RunResult out;
  out.regTrace.assign(m.regs.size(), {});
  out.probeTrace.assign(m.probes.size(), {});
  out.freeTrace.assign(m.freeIns.size(), {});

  common::parallelFor(words, [&](std::size_t w) {
    TernaryEvaluator eval(m.g);
    std::vector<XWord> cur(m.regs.size(), aig::xAllX());
    std::vector<XWord> inputs(m.g.numInputs(), aig::xAllZero());
    // Lane 0 of word 0 is the all-X proof lane: its inputs stay X and it is
    // exempt from the obligations that assume concrete inputs.
    const std::uint64_t concreteLanes =
        w == 0 ? ~std::uint64_t{1} : ~std::uint64_t{0};
    for (int c = 0; c < totalCycles; ++c) {
      inputs[m.rstIdx] = aig::xConcrete(c < r ? ~std::uint64_t{0} : 0);
      inputs[m.restartIdx] =
          aig::xConcrete(c == restartAt ? ~std::uint64_t{0} : 0);
      for (std::size_t f = 0; f < m.freeIns.size(); ++f) {
        XWord v = aig::xConcrete(inputWordFor(kSeed, f, w, c));
        if (w == 0) {
          v.one &= ~std::uint64_t{1};
          v.x = 1;
        }
        inputs[m.freeIns[f].second] = v;
      }
      for (std::size_t i = 0; i < m.regs.size(); ++i) {
        inputs[m.regs[i].input] = cur[i];
      }
      eval.run(inputs);

      if (w == 0) {
        out.rstTrace.push_back(inputs[m.rstIdx]);
        out.restartTrace.push_back(inputs[m.restartIdx]);
        for (std::size_t f = 0; f < m.freeIns.size(); ++f) {
          out.freeTrace[f].push_back(inputs[m.freeIns[f].second]);
        }
        for (std::size_t i = 0; i < m.regs.size(); ++i) {
          out.regTrace[i].push_back(cur[i]);
        }
        for (std::size_t p = 0; p < m.probes.size(); ++p) {
          out.probeTrace[p].push_back(eval.value(m.probes[p].lit));
        }
      }

      if (c == r) {
        // The reset window has closed: every register must be determinate
        // in *every* lane, the all-X proof lane included.
        for (std::size_t i = 0; i < m.regs.size(); ++i) {
          if (cur[i].x != 0) perWord[w].push_back({true, i, c});
        }
      } else if (c > r) {
        for (std::size_t i = 0; i < m.regs.size(); ++i) {
          if ((cur[i].x & concreteLanes) != 0) {
            perWord[w].push_back({true, i, c});
          }
        }
      }
      if (c >= r) {
        for (std::size_t p = 0; p < m.probes.size(); ++p) {
          if ((eval.value(m.probes[p].lit).x & concreteLanes) != 0) {
            perWord[w].push_back({false, p, c});
          }
        }
      }

      for (std::size_t i = 0; i < m.regs.size(); ++i) {
        cur[i] = eval.value(m.regs[i].next);
      }
    }
    evals[w] = eval.gateEvals();
  });

  for (std::size_t w = 0; w < words; ++w) {
    out.gateEvals += evals[w];
    out.failures.insert(out.failures.end(), perWord[w].begin(),
                        perWord[w].end());
  }
  std::sort(out.failures.begin(), out.failures.end());
  return out;
}

// --- waveform rendering -----------------------------------------------------

char laneChar(XWord v) { return (v.x & 1) ? 'X' : ((v.one & 1) ? '1' : '0'); }

std::string laneString(const std::vector<XWord>& trace) {
  std::string s;
  for (const XWord v : trace) s += laneChar(v);
  return s;
}

/// "\n  <name padded> 1100XX10" rows under a cycle ruler.
std::string renderWave(
    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::size_t width = 5;  // "cycle"
  std::size_t cycles = 0;
  for (const auto& [name, vals] : rows) {
    width = std::max(width, name.size());
    cycles = std::max(cycles, vals.size());
  }
  std::ostringstream os;
  os << "\n  " << std::string(width - 5, ' ') << "cycle ";
  for (std::size_t c = 0; c < cycles; ++c) os << (c % 10);
  for (const auto& [name, vals] : rows) {
    os << "\n  " << std::string(width - name.size(), ' ') << name << " "
       << vals;
  }
  return os.str();
}

/// Waveform of the proof lane around one failing register/probe: the reset
/// strobes, the free inputs, and every signal of the failing artifact.
std::string failureWave(const NetModel& m, const RunResult& run,
                        const std::string& failArtifact) {
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("rst", laneString(run.rstTrace));
  rows.emplace_back("restart", laneString(run.restartTrace));
  for (std::size_t f = 0; f < m.freeIns.size() && f < 6; ++f) {
    rows.emplace_back(m.freeIns[f].first, laneString(run.freeTrace[f]));
  }
  for (std::size_t i = 0; i < m.regs.size(); ++i) {
    if (m.regs[i].artifact == failArtifact) {
      rows.emplace_back(m.regs[i].name, laneString(run.regTrace[i]));
    }
  }
  for (std::size_t p = 0; p < m.probes.size(); ++p) {
    if (m.probes[p].artifact == failArtifact) {
      rows.emplace_back(m.probes[p].name, laneString(run.probeTrace[p]));
    }
  }
  return renderWave(rows);
}

/// XPR001/XPR003 over one model: search the reset depth, report per-artifact
/// counterexamples, append the verdict row.  Returns the proven depth or -1.
int checkModel(const NetModel& m, const std::string& artifact,
               const char* rule, Report& report, const XprOptions& opt,
               XpropStats& stats) {
  const int budget = std::max(1, opt.maxCycles);
  const int total = budget + std::max(4, opt.maxCycles);
  const std::uint64_t lanes =
      static_cast<std::uint64_t>(std::max(1, opt.words)) * 64 - 1;

  XpropPropertyStat row;
  row.artifact = artifact;
  row.rule = rule;
  row.instances = lanes;

  RunResult firstFail;
  bool haveFail = false;
  for (int r = 1; r <= budget; ++r) {
    RunResult run = runTernary(m, r, total, opt);
    stats.instances += lanes;
    stats.gateEvals += run.gateEvals;
    row.gateEvals += run.gateEvals;
    if (run.failures.empty()) {
      stats.resetDepth = std::max(stats.resetDepth, r);
      row.verdict = propertyVerdictName(PropertyVerdict::Proved);
      row.depth = r;
      stats.properties.push_back(std::move(row));
      return r;
    }
    if (!haveFail) {
      firstFail = std::move(run);
      haveFail = true;
    }
  }

  // No reset depth within the budget drains every X: report the r=1 run's
  // proof-lane waveform, one diagnostic per offending artifact.
  row.verdict = propertyVerdictName(PropertyVerdict::Counterexample);
  row.cexCycle = firstFail.failures.front().cycle;
  std::set<std::string> reported;
  for (const RunFailure& f : firstFail.failures) {
    const std::string& fa =
        f.isReg ? m.regs[f.idx].artifact : m.probes[f.idx].artifact;
    const std::string& name =
        f.isReg ? m.regs[f.idx].name : m.probes[f.idx].name;
    if (!reported.insert(fa).second) continue;
    report.add(rule, fa, name,
               "still X " + std::to_string(f.cycle) +
                   " cycle(s) after power-on despite the reset window "
                   "(searched up to " +
                   std::to_string(budget) +
                   " reset cycles; lane shown is the all-X power-on under "
                   "all-X inputs):" +
                   failureWave(m, firstFail, fa));
  }
  stats.properties.push_back(std::move(row));
  return -1;
}

// --- XPR002: ternary agreement of the emitted RTL ---------------------------

/// One model<->RTL compare point: a packed group of model register bits (or
/// one probe) against one vsim signal.
struct ComparePoint {
  std::string rtlName;              ///< hierarchical vsim name
  std::vector<std::size_t> regIdx;  ///< model regs, LSB first (empty: probe)
  std::size_t probeIdx = 0;         ///< model probe when regIdx is empty
};

struct PackedVal {
  std::uint64_t v = 0;
  std::uint64_t x = 0;
};

PackedVal packModel(const ComparePoint& p, const std::vector<XWord>& regs,
                    const TernaryEvaluator& eval, const NetModel& m) {
  PackedVal out;
  if (p.regIdx.empty()) {
    const XWord w = eval.value(m.probes[p.probeIdx].lit);
    return {w.one & 1, w.x & 1};
  }
  for (std::size_t b = 0; b < p.regIdx.size(); ++b) {
    out.v |= (regs[p.regIdx[b]].one & 1) << b;
    out.x |= (regs[p.regIdx[b]].x & 1) << b;
  }
  return out;
}

char pointChar(std::uint64_t v, std::uint64_t x, bool multiBit) {
  if (x != 0) return 'X';
  if (!multiBit) return v ? '1' : '0';
  return static_cast<char>('0' + (v % 10));  // state code, mod-10 digits
}

/// Replay the emitted RTL, lowered once to a sequential AIG, on the ternary
/// evaluator against the binary network model: the all-X proof instance
/// plus kRtlInstances concrete power-ons.  Mutually-determinate bits must
/// agree every cycle, and after the reset window the RTL may not hold X
/// anywhere the model is determinate.
void checkRtlAgreement(const fsm::DistributedControlUnit& dcu,
                       const NetModel& m, const std::string& artifact,
                       Report& report, const XprOptions& opt, int resetDepth,
                       XpropStats& stats) {
  const std::string source = opt.rtlOverride.empty()
                                 ? rtl::emitPackage(dcu, kXpropTopName)
                                 : opt.rtlOverride;
  const int r = resetDepth > 0 ? resetDepth : 1;
  const int total = r + std::max(8, opt.maxCycles);
  const int restartAt = restartCycleFor(r);
  const int instances = kRtlInstances + 1;

  XpropPropertyStat row;
  row.artifact = artifact;
  row.rule = "XPR002";
  row.instances = static_cast<std::uint64_t>(instances);
  row.verdict = propertyVerdictName(PropertyVerdict::Proved);
  row.depth = r;

  std::vector<ComparePoint> points;
  for (const StateGroup& gr : m.stateGroups) {
    points.push_back({"u_" + gr.fsmName + ".state", gr.regIdx, 0});
  }
  std::set<std::string> internal;
  for (const auto& [sig, producer] : dcu.producerOf) internal.insert(sig);
  for (const auto& [sig, reg] : m.heldRegOf) {
    points.push_back({"u_latch_" + sig + ".held", {reg}, 0});
    points.push_back({sig + "_pulse", {}, m.probeIdxOf.at(sig + "_pulse")});
    points.push_back({sig + "_level", {}, m.probeIdxOf.at(sig + "_level")});
  }
  for (const fsm::UnitController& c : dcu.controllers) {
    for (const std::string& o : c.fsm.outputs()) {
      if (!internal.contains(o) && !o.starts_with("CCO_")) {
        points.push_back({o, {}, m.probeIdxOf.at(o)});
      }
    }
  }

  try {
    const vsim::Design design = vsim::parseDesign(source);
    const vsim::Elaboration elab = vsim::elaborate(design, kXpropTopName);
    const lowering::PackageCones pkg = lowering::lowerPackage(elab);
    auto topInput = [&](const std::string& name) {
      const Lit l = pkg.g.findInput(name);
      TAUHLS_CHECK(l != kLitFalse, "unknown top input: " + name);
      return pkg.g.inputIndexOf(aig::nodeOf(l));
    };
    const std::size_t rtlRst = topInput("rst");
    const std::size_t rtlRestart = topInput("restart");
    std::vector<std::size_t> rtlFree;
    for (const auto& [name, idx] : m.freeIns) rtlFree.push_back(topInput(name));
    std::vector<const std::vector<Lit>*> rtlPoint;
    for (const ComparePoint& pt : points) {
      rtlPoint.push_back(&pkg.signal[elab.findSignal(pt.rtlName)]);
    }
    TernaryEvaluator rtlEval(pkg.g);

    for (int inst = 0; inst < instances && row.cexCycle < 0; ++inst) {
      TernaryEvaluator eval(m.g);
      std::vector<XWord> regs(m.regs.size(), aig::xAllX());
      std::vector<XWord> inputs(m.g.numInputs(), aig::xAllZero());
      std::vector<XWord> rtlRegs(pkg.regs.size(), aig::xAllX());
      std::vector<XWord> rtlInputs(pkg.g.numInputs(), aig::xAllX());
      std::vector<std::string> modelWave(points.size()),
          rtlWave(points.size());
      std::string rstWave, restartWave;

      for (int c = 0; c < total && row.cexCycle < 0; ++c) {
        const bool rstNow = c < r;
        const bool restartNow = c == restartAt;
        inputs[m.rstIdx] = aig::xConcrete(rstNow ? ~std::uint64_t{0} : 0);
        inputs[m.restartIdx] =
            aig::xConcrete(restartNow ? ~std::uint64_t{0} : 0);
        for (std::size_t f = 0; f < m.freeIns.size(); ++f) {
          XWord v = aig::xAllX();
          if (inst > 0) {
            const bool bit = inputWordFor(kSeed ^ 0x52544cull, f,
                                          static_cast<std::size_t>(inst), c) &
                             1;
            v = bit ? aig::xAllOne() : aig::xAllZero();
          }
          inputs[m.freeIns[f].second] = v;
          rtlInputs[rtlFree[f]] = v;
        }
        for (std::size_t i = 0; i < m.regs.size(); ++i) {
          inputs[m.regs[i].input] = regs[i];
        }
        rtlInputs[rtlRst] = inputs[m.rstIdx];
        rtlInputs[rtlRestart] = inputs[m.restartIdx];
        for (std::size_t i = 0; i < pkg.regs.size(); ++i) {
          rtlInputs[pkg.regs[i].input] = rtlRegs[i];
        }
        eval.run(inputs);
        rtlEval.run(rtlInputs);
        ++stats.rtlCycles;
        rstWave += rstNow ? '1' : '0';
        restartWave += restartNow ? '1' : '0';

        for (std::size_t p = 0; p < points.size(); ++p) {
          const ComparePoint& pt = points[p];
          const std::size_t width = std::max<std::size_t>(1, pt.regIdx.size());
          const PackedVal mv = packModel(pt, regs, eval, m);
          std::uint64_t rv = 0, rx = 0;
          const std::vector<Lit>& lits = *rtlPoint[p];
          for (std::size_t b = 0; b < width && b < lits.size(); ++b) {
            const XWord w = rtlEval.value(lits[b]);
            rv |= (w.one & 1) << b;
            rx |= (w.x & 1) << b;
          }
          modelWave[p] += pointChar(mv.v, mv.x, pt.regIdx.size() > 1);
          rtlWave[p] += pointChar(rv, rx, pt.regIdx.size() > 1);

          // The model is the reference: X it has proven away (XPR001) must
          // not survive in the RTL, and bits both sides know must agree.
          std::string why;
          if (((mv.v ^ rv) & ~mv.x & ~rx) != 0) {
            why = "determinate bits disagree";
          } else if (c >= r && inst > 0 && (rx & ~mv.x) != 0) {
            why = "RTL still X after the reset window";
          } else if (c == r && inst == 0 && !pt.regIdx.empty() &&
                     (rx & ~mv.x) != 0) {
            why = "RTL register still X after the reset window "
                  "(all-X inputs)";
          }
          if (!why.empty()) {
            row.verdict =
                propertyVerdictName(PropertyVerdict::Counterexample);
            row.cexCycle = c;
            report.add(
                "XPR002", artifact, pt.rtlName,
                "RTL ternary replay diverges from the network model at "
                "cycle " +
                    std::to_string(c) + " (instance " + std::to_string(inst) +
                    (inst == 0 ? ", all-X inputs" : ", concrete inputs") +
                    "): " + why + ":" +
                    renderWave({{"rst", rstWave},
                                {"restart", restartWave},
                                {"model " + pt.rtlName, modelWave[p]},
                                {"rtl " + pt.rtlName, rtlWave[p]}}));
            break;
          }
        }
        if (row.cexCycle >= 0) break;

        for (std::size_t i = 0; i < m.regs.size(); ++i) {
          regs[i] = eval.value(m.regs[i].next);
        }
        for (std::size_t i = 0; i < pkg.regs.size(); ++i) {
          rtlRegs[i] = rtlEval.value(pkg.regs[i].next);
        }
      }
      row.gateEvals += eval.gateEvals();
      stats.gateEvals += eval.gateEvals();
    }
  } catch (const Error& e) {
    row.verdict = propertyVerdictName(PropertyVerdict::Counterexample);
    report.add("XPR002", artifact, "",
               std::string("ternary RTL replay failed: ") + e.what());
  }
  stats.properties.push_back(std::move(row));
}

}  // namespace

std::map<std::string, RuleCost> XpropStats::ruleCost() const {
  std::map<std::string, RuleCost> out;
  for (const XpropPropertyStat& p : properties) {
    out[p.rule].queries += p.instances;
    out[p.rule] += p.cost;
  }
  return out;
}

XpropStats& XpropStats::operator+=(const XpropStats& o) {
  controllers += o.controllers;
  stateBits += o.stateBits;
  latchBits += o.latchBits;
  resetDepth = std::max(resetDepth, o.resetDepth);
  instances += o.instances;
  gateEvals += o.gateEvals;
  rtlCycles += o.rtlCycles;
  properties.insert(properties.end(), o.properties.begin(),
                    o.properties.end());
  return *this;
}

XpropStats checkXprop(const fsm::DistributedControlUnit& dcu,
                      const std::string& artifact, Report& report,
                      const XprOptions& options) {
  XpropStats stats;
  stats.artifact = artifact;
  stats.controllers = dcu.controllers.size();

  const std::size_t errorsBefore = report.errorCount();
  NetModel model = buildFlatModel(dcu, options.style, options);
  for (const ModelReg& r : model.regs) {
    (r.name == "held" ? stats.latchBits : stats.stateBits) += 1;
  }
  const int depth =
      checkModel(model, artifact, "XPR001", report, options, stats);

  // The RTL replay always compares against the *binary* model, because the
  // emitted controllers always encode binary.
  if (options.style == synth::EncodingStyle::Binary) {
    checkRtlAgreement(dcu, model, artifact, report, options, depth, stats);
  } else {
    const NetModel binary =
        buildFlatModel(dcu, synth::EncodingStyle::Binary, options);
    checkRtlAgreement(dcu, binary, artifact, report, options, depth, stats);
  }

  if (report.errorCount() == errorsBefore) {
    XpropPropertyStat row;
    row.artifact = artifact;
    row.rule = "XPR004";
    row.verdict = propertyVerdictName(PropertyVerdict::Proved);
    row.depth = depth;
    row.instances = stats.instances;
    row.gateEvals = stats.gateEvals;
    report.add("XPR004", artifact, "",
               "reset robustness proven: every register determinate within " +
                   std::to_string(depth) +
                   " reset cycle(s) from any power-on state (" +
                   std::to_string(stats.instances) + " instances, " +
                   std::to_string(stats.gateEvals) +
                   " ternary gate evaluations; RTL ternary replay agrees)");
    stats.properties.push_back(std::move(row));
  }
  return stats;
}

XpropStats checkXpropHierarchical(const fsm::HierarchicalControlUnit& hcu,
                                  const std::string& artifact, Report& report,
                                  const XprOptions& options) {
  XpropStats stats;
  stats.artifact = artifact;
  stats.controllers = 1;  // the sequencer; leaves add their own below

  const std::size_t errorsBefore = report.errorCount();
  NetModel model = buildSequencerModel(hcu, options.style, options);
  for (const ModelReg& r : model.regs) {
    (r.name == "held" ? stats.latchBits : stats.stateBits) += 1;
  }
  const int depth =
      checkModel(model, artifact, "XPR003", report, options, stats);
  if (report.errorCount() == errorsBefore) {
    report.add("XPR004", artifact, "",
               "sequencer and ST_/DN_ handshake latches X-safe within " +
                   std::to_string(depth) +
                   " reset cycle(s) under free DN_/SEL inputs");
  }

  for (const fsm::LeafControl& leaf : hcu.leaves) {
    stats += checkXprop(leaf.dcu, "leaf " + leaf.path + " of " + artifact,
                        report, options);
  }
  return stats;
}

}  // namespace tauhls::verify
