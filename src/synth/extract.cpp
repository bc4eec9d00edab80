#include "synth/extract.hpp"

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "logic/minimize.hpp"
#include "logic/truth_table.hpp"

namespace tauhls::synth {

std::vector<bool> reachableStates(const fsm::Fsm& fsm) {
  std::vector<bool> seen(fsm.numStates(), false);
  std::queue<int> q;
  q.push(fsm.initial());
  seen[fsm.initial()] = true;
  while (!q.empty()) {
    int s = q.front();
    q.pop();
    for (const fsm::Transition* t : fsm.transitionsFrom(s)) {
      if (!seen[t->to]) {
        seen[t->to] = true;
        q.push(t->to);
      }
    }
  }
  return seen;
}

int SynthesizedFsm::totalLiterals() const {
  int n = 0;
  for (const logic::Cover& c : nextStateLogic) n += c.literalCount();
  for (const logic::Cover& c : outputLogic) n += c.literalCount();
  return n;
}

namespace {

std::unordered_map<std::string, int> indexOf(
    const std::vector<std::string>& names) {
  std::unordered_map<std::string, int> index;
  for (std::size_t i = 0; i < names.size(); ++i) {
    index.emplace(names[i], static_cast<int>(i));
  }
  return index;
}

/// The original extraction: every row steps the machine by signal name, and
/// every table is minimized on its own.  The kernel benchmark's naive regime
/// (MinimizerImpl::Reference) measures this path.
void extractReference(const fsm::Fsm& fsm, const Encoding& enc,
                      const std::vector<bool>& reachable,
                      SynthesizedFsm& out) {
  const int numInputs = static_cast<int>(fsm.inputs().size());
  const int numVars = enc.bits + numInputs;
  std::vector<logic::TruthTable> nextBits(enc.bits, logic::TruthTable(numVars));
  std::vector<logic::TruthTable> outBits(fsm.outputs().size(),
                                         logic::TruthTable(numVars));
  const std::uint64_t rows = std::uint64_t{1} << numVars;
  for (std::uint64_t row = 0; row < rows; ++row) {
    const std::uint32_t code =
        static_cast<std::uint32_t>(row & ((std::uint64_t{1} << enc.bits) - 1));
    const int state = enc.stateOf(code);
    if (state < 0 || !reachable[state]) {
      for (auto& tt : nextBits) tt.set(row, logic::Ternary::DontCare);
      for (auto& tt : outBits) tt.set(row, logic::Ternary::DontCare);
      continue;
    }
    std::unordered_set<std::string> asserted;
    for (int i = 0; i < numInputs; ++i) {
      if ((row >> (enc.bits + i)) & 1) asserted.insert(fsm.inputs()[i]);
    }
    const fsm::Fsm::StepResult r = fsm.step(state, asserted);
    const std::uint32_t nextCode = enc.codeOf[r.nextState];
    for (std::size_t o = 0; o < fsm.outputs().size(); ++o) {
      const bool on = std::find(r.outputs.begin(), r.outputs.end(),
                                fsm.outputs()[o]) != r.outputs.end();
      outBits[o].set(row, on ? logic::Ternary::One : logic::Ternary::Zero);
    }
    for (int b = 0; b < enc.bits; ++b) {
      nextBits[b].set(row, ((nextCode >> b) & 1) ? logic::Ternary::One
                                                 : logic::Ternary::Zero);
    }
  }
  for (const logic::TruthTable& tt : nextBits) {
    out.nextStateLogic.push_back(logic::minimize(tt));
  }
  for (const logic::TruthTable& tt : outBits) {
    out.outputLogic.push_back(logic::minimize(tt));
  }
}

/// The fast extraction, in the cube domain.  Guards are compiled to
/// (care, value) terms over the inputs, and each term of a transition,
/// conjoined with the source state's code, is one cube over the state bits
/// and inputs.  validateFsm has already proven exactly one transition fires
/// per assignment, so a transition fires somewhere exactly when its source
/// is reachable and its guard has a term, and the cubes of distinct
/// transitions never meet.  Every next-state bit and output is a function
/// of the fired transition alone: its onset is the cubes of the firing
/// transitions on which it is 1, its offset those on which it is 0, and
/// every other row (an unreachable or undecodable state code) is a
/// don't-care.  Two functions whose values agree on every firing transition
/// are the same function (RE_i and CCO_i, both asserted exactly on the
/// completing cycle, are the common case), so each distinct one is
/// minimized once.
void extractFast(const fsm::Fsm& fsm, const Encoding& enc,
                 const std::vector<bool>& reachable, SynthesizedFsm& out) {
  const int numVars = enc.bits + static_cast<int>(fsm.inputs().size());
  const std::unordered_map<std::string, int> inputIndex =
      indexOf(fsm.inputs());
  const std::unordered_map<std::string, int> outputIndex =
      indexOf(fsm.outputs());

  struct FiringTransition {
    std::vector<logic::Cube> cubes;
    int to = 0;
    std::vector<char> outputOn;
  };
  std::vector<FiringTransition> firing;
  for (const fsm::Transition& t : fsm.transitions()) {
    if (!reachable[static_cast<std::size_t>(t.from)]) continue;
    std::uint64_t stateCare = 0;
    std::uint64_t stateValue = 0;
    for (int b = 0; b < enc.bits; ++b) {
      const std::uint64_t bit = std::uint64_t{1} << b;
      stateCare |= bit;
      if (enc.codeBit(t.from, b)) stateValue |= bit;
    }
    FiringTransition ft;
    for (const fsm::GuardTerm& term : t.guard.terms()) {
      std::uint64_t care = stateCare;
      std::uint64_t value = stateValue;
      for (const auto& [sig, positive] : term.literals) {
        const std::uint64_t bit = std::uint64_t{1}
                                  << (enc.bits + inputIndex.at(sig));
        care |= bit;
        if (positive) value |= bit;
      }
      ft.cubes.push_back(logic::Cube::fromMasks(numVars, care, value));
    }
    if (ft.cubes.empty()) continue;
    ft.to = t.to;
    ft.outputOn.assign(fsm.outputs().size(), 0);
    for (const std::string& sig : t.outputs) {
      ft.outputOn[outputIndex.at(sig)] = 1;
    }
    firing.push_back(std::move(ft));
  }

  // Function f's value on each firing transition: f < bits is next-state
  // bit f, the rest are outputs.
  const auto signature = [&](int f) {
    std::vector<char> sig(firing.size(), 0);
    for (std::size_t t = 0; t < firing.size(); ++t) {
      sig[t] = f < enc.bits ? static_cast<char>(enc.codeBit(firing[t].to, f))
                            : firing[t].outputOn[f - enc.bits];
    }
    return sig;
  };
  std::map<std::vector<char>, logic::Cover> minimized;
  const auto cover = [&](int f) {
    std::vector<char> sig = signature(f);
    const auto it = minimized.find(sig);
    if (it != minimized.end()) return it->second;
    logic::CubeFunction fn;
    fn.numVars = numVars;
    for (std::size_t t = 0; t < firing.size(); ++t) {
      std::vector<logic::Cube>& side = sig[t] ? fn.onset : fn.offset;
      side.insert(side.end(), firing[t].cubes.begin(), firing[t].cubes.end());
    }
    return minimized.emplace(std::move(sig), logic::minimize(fn))
        .first->second;
  };
  for (int b = 0; b < enc.bits; ++b) out.nextStateLogic.push_back(cover(b));
  for (std::size_t o = 0; o < fsm.outputs().size(); ++o) {
    out.outputLogic.push_back(cover(enc.bits + static_cast<int>(o)));
  }
}

SynthesizedFsm synthesizeUncached(const fsm::Fsm& fsm, EncodingStyle style) {
  fsm::validateFsm(fsm);
  const Encoding enc = encodeStates(fsm, style);
  const int numInputs = static_cast<int>(fsm.inputs().size());
  const bool fast = logic::minimizerImpl() == logic::MinimizerImpl::Fast;
  TAUHLS_CHECK(
      enc.bits + numInputs <= (fast ? kMaxFastVars : kMaxReferenceVars),
      "FSM too large for explicit logic extraction: " + fsm.name());

  SynthesizedFsm out;
  out.name = fsm.name();
  out.numInputs = numInputs;
  out.numOutputs = static_cast<int>(fsm.outputs().size());
  out.numStates = static_cast<int>(fsm.numStates());
  out.flipFlops = enc.bits;
  const std::vector<bool> reachable = reachableStates(fsm);
  if (fast) {
    extractFast(fsm, enc, reachable, out);
  } else {
    extractReference(fsm, enc, reachable, out);
  }
  return out;
}

/// Everything the covers depend on and no name: the encoding, the state
/// count, the initial state, the input and output counts, and per
/// transition its endpoints, its guard terms as (input index, polarity) and
/// its output indices.
common::Fingerprint structuralKey(const fsm::Fsm& fsm, EncodingStyle style) {
  const std::unordered_map<std::string, int> inputIndex =
      indexOf(fsm.inputs());
  const std::unordered_map<std::string, int> outputIndex =
      indexOf(fsm.outputs());
  common::Hasher h;
  h.u64(static_cast<std::uint64_t>(style))
      .u64(fsm.numStates())
      .i64(fsm.initial())
      .u64(fsm.inputs().size())
      .u64(fsm.outputs().size())
      .u64(fsm.transitions().size());
  std::vector<std::pair<int, bool>> literals;
  std::vector<int> outputs;
  for (const fsm::Transition& t : fsm.transitions()) {
    h.i64(t.from).i64(t.to).u64(t.guard.terms().size());
    for (const fsm::GuardTerm& term : t.guard.terms()) {
      literals.clear();
      for (const auto& [sig, positive] : term.literals) {
        literals.emplace_back(inputIndex.at(sig), positive);
      }
      std::sort(literals.begin(), literals.end());
      h.u64(literals.size());
      for (const auto& [index, positive] : literals) {
        h.i64(index).boolean(positive);
      }
    }
    outputs.clear();
    for (const std::string& sig : t.outputs) {
      outputs.push_back(outputIndex.at(sig));
    }
    std::sort(outputs.begin(), outputs.end());
    outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());
    h.u64(outputs.size());
    for (const int o : outputs) h.i64(o);
  }
  return h.digest();
}

/// Process-wide single-flight cache of Fast-mode results by structural key.
/// A slot resolves to nullopt when its owner's synthesis threw; the
/// exception itself never crosses threads.  Cleared when it reaches the
/// cap; gEpoch counts the clears, so a failed owner erases only its own
/// slot.
using Flight = std::shared_future<std::optional<SynthesizedFsm>>;
constexpr std::size_t kCacheMaxEntries = 1 << 14;
std::mutex gCacheMutex;
std::unordered_map<common::Fingerprint, Flight, common::FingerprintHash> gCache;
std::uint64_t gEpoch = 0;

}  // namespace

SynthesizedFsm synthesize(const fsm::Fsm& fsm, EncodingStyle style) {
  if (logic::minimizerImpl() == logic::MinimizerImpl::Reference) {
    return synthesizeUncached(fsm, style);
  }
  const common::Fingerprint key = structuralKey(fsm, style);
  std::promise<std::optional<SynthesizedFsm>> promise;
  Flight flight;
  std::uint64_t epoch = 0;
  {
    const std::lock_guard<std::mutex> lock(gCacheMutex);
    const auto it = gCache.find(key);
    if (it != gCache.end()) {
      flight = it->second;
    } else {
      if (gCache.size() >= kCacheMaxEntries) {
        gCache.clear();
        ++gEpoch;
      }
      gCache.emplace(key, promise.get_future().share());
      epoch = gEpoch;
    }
  }
  if (!flight.valid()) {
    // This caller owns the slot.  Synthesis never enters the thread pool,
    // so a pool worker blocked on the slot cannot be one the owner needs.
    try {
      SynthesizedFsm out = synthesizeUncached(fsm, style);
      promise.set_value(out);
      return out;
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(gCacheMutex);
        if (gEpoch == epoch) gCache.erase(key);
      }
      promise.set_value(std::nullopt);
      throw;
    }
  }
  const std::optional<SynthesizedFsm>& shared = flight.get();
  // The owner's synthesis threw.  Same key, same failure: recompute so the
  // error names this caller's FSM, not the owner's.
  if (!shared) return synthesizeUncached(fsm, style);
  SynthesizedFsm out = *shared;
  out.name = fsm.name();
  return out;
}

}  // namespace tauhls::synth
