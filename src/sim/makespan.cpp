#include "sim/makespan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "dfg/analysis.hpp"

namespace tauhls::sim {

using dfg::NodeId;

MakespanHistogram MakespanHistogram::unit() {
  MakespanHistogram h;
  h.buckets[{0, 0}] = 1;
  return h;
}

std::vector<int> distributedFinishCycles(const sched::ScheduledDfg& s,
                                         const OperandClasses& classes) {
  TAUHLS_CHECK(classes.shortClass.size() == s.graph.numNodes(),
               "operand-class vector size mismatch");
  std::vector<int> opCycles(s.graph.numNodes(), 0);
  for (NodeId v : s.graph.opIds()) {
    opCycles[v] = s.opCycles(v, classes.isShort(v));
  }
  return distributedFinishCycles(s, opCycles);
}

std::vector<int> distributedFinishCycles(const sched::ScheduledDfg& s,
                                         const std::vector<int>& opCycles) {
  TAUHLS_CHECK(opCycles.size() == s.graph.numNodes(),
               "op-cycle vector size mismatch");
  std::vector<int> finish(s.graph.numNodes(), -1);

  // Previous op on the same unit.
  std::vector<NodeId> prevOnUnit(s.graph.numNodes(), dfg::kNoNode);
  for (std::size_t u = 0; u < s.binding.numUnits(); ++u) {
    const auto& seq = s.binding.sequenceOf(static_cast<int>(u));
    for (std::size_t i = 1; i < seq.size(); ++i) prevOnUnit[seq[i]] = seq[i - 1];
  }

  const std::vector<NodeId> order = dfg::topologicalOrder(s.graph);
  TAUHLS_ASSERT(order.size() == s.graph.numNodes(), "scheduled graph not a DAG");
  for (NodeId v : order) {
    if (!s.graph.isOp(v)) continue;
    int start = 0;
    for (NodeId p : s.graph.dependencePredecessors(v)) {
      if (s.graph.isOp(p)) start = std::max(start, finish[p] + 1);
    }
    if (prevOnUnit[v] != dfg::kNoNode) {
      TAUHLS_ASSERT(finish[prevOnUnit[v]] >= 0,
                    "unit sequence out of topological order");
      start = std::max(start, finish[prevOnUnit[v]] + 1);
    }
    finish[v] = start + opCycles[v] - 1;
  }
  return finish;
}

int distributedMakespanCycles(const sched::ScheduledDfg& s,
                              const OperandClasses& classes) {
  const std::vector<int> finish = distributedFinishCycles(s, classes);
  int last = -1;
  for (NodeId v : s.graph.opIds()) last = std::max(last, finish[v]);
  return last + 1;
}

int syncMakespanCycles(const sched::ScheduledDfg& s,
                       const OperandClasses& classes) {
  TAUHLS_CHECK(classes.shortClass.size() == s.graph.numNodes(),
               "operand-class vector size mismatch");
  int cycles = 0;
  for (const sched::TaubmStep& step : s.taubm.steps) {
    bool anyLong = false;
    for (NodeId v : step.tauOps) anyLong |= !classes.isShort(v);
    cycles += anyLong ? 2 : 1;
  }
  return cycles;
}

MakespanEngine::MakespanEngine(const sched::ScheduledDfg& s) {
  numNodes_ = s.graph.numNodes();
  const std::vector<NodeId> order = dfg::topologicalOrder(s.graph);
  TAUHLS_CHECK(order.size() == numNodes_, "scheduled graph not a DAG");

  std::vector<NodeId> prevOnUnit(numNodes_, dfg::kNoNode);
  for (std::size_t u = 0; u < s.binding.numUnits(); ++u) {
    const auto& seq = s.binding.sequenceOf(static_cast<int>(u));
    for (std::size_t i = 1; i < seq.size(); ++i) prevOnUnit[seq[i]] = seq[i - 1];
  }

  std::vector<std::uint32_t> slotOf(numNodes_, 0);
  predOffsets_.push_back(0);
  for (NodeId v : order) {
    if (!s.graph.isOp(v)) continue;
    const auto slot = static_cast<std::uint32_t>(idOfSlot_.size());
    slotOf[v] = slot;
    idOfSlot_.push_back(v);
    shortCycles_.push_back(s.opCycles(v, true));
    longCycles_.push_back(s.opCycles(v, false));
    for (NodeId p : s.graph.dependencePredecessors(v)) {
      if (s.graph.isOp(p)) preds_.push_back(slotOf[p]);
    }
    if (prevOnUnit[v] != dfg::kNoNode) preds_.push_back(slotOf[prevOnUnit[v]]);
    predOffsets_.push_back(static_cast<std::uint32_t>(preds_.size()));
  }

  // Reverse the predecessor index into the CSR successor index.
  const std::size_t numOps = idOfSlot_.size();
  std::vector<std::uint32_t> succCount(numOps, 0);
  for (std::uint32_t p : preds_) ++succCount[p];
  succOffsets_.assign(numOps + 1, 0);
  for (std::size_t i = 0; i < numOps; ++i) {
    succOffsets_[i + 1] = succOffsets_[i] + succCount[i];
  }
  succs_.resize(preds_.size());
  std::vector<std::uint32_t> cursor(succOffsets_.begin(),
                                    succOffsets_.end() - 1);
  for (std::size_t i = 0; i < numOps; ++i) {
    for (std::uint32_t k = predOffsets_[i]; k < predOffsets_[i + 1]; ++k) {
      succs_[cursor[preds_[k]]++] = static_cast<std::uint32_t>(i);
    }
  }
  for (std::size_t i = 0; i < numOps; ++i) {
    if (succOffsets_[i] == succOffsets_[i + 1]) {
      terminals_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // TAU-bound ops in ascending NodeId order (== tauOps(s)).
  tauIndexOfSlot_.assign(numOps, -1);
  for (NodeId v : s.graph.opIds()) {
    const int u = s.binding.unitOf(v);
    TAUHLS_ASSERT(u >= 0, "unbound op in scheduled DFG");
    if (s.unitIsTelescopic(u)) {
      tauIndexOfSlot_[slotOf[v]] = static_cast<int>(tauIds_.size());
      tauIds_.push_back(v);
      tauSlots_.push_back(slotOf[v]);
    }
  }

  // Successor-cone size per TAU op (the slots one flipTau can touch).
  tauConeSize_.reserve(tauSlots_.size());
  std::vector<int> stamp(numOps, -1);
  std::vector<std::uint32_t> stack;
  for (std::size_t t = 0; t < tauSlots_.size(); ++t) {
    int cone = 0;
    stamp[tauSlots_[t]] = static_cast<int>(t);
    stack.push_back(tauSlots_[t]);
    while (!stack.empty()) {
      const std::uint32_t slot = stack.back();
      stack.pop_back();
      ++cone;
      for (std::uint32_t k = succOffsets_[slot]; k < succOffsets_[slot + 1];
           ++k) {
        const std::uint32_t succ = succs_[k];
        if (stamp[succ] != static_cast<int>(t)) {
          stamp[succ] = static_cast<int>(t);
          stack.push_back(succ);
        }
      }
    }
    tauConeSize_.push_back(cone);
  }

  stepTauOffsets_.push_back(0);
  for (const sched::TaubmStep& step : s.taubm.steps) {
    for (NodeId v : step.tauOps) stepTauIds_.push_back(v);
    stepTauOffsets_.push_back(static_cast<std::uint32_t>(stepTauIds_.size()));
  }
  if (supportsMasks()) {
    stepMasks_.reserve(s.taubm.steps.size());
    for (const sched::TaubmStep& step : s.taubm.steps) {
      std::uint64_t m = 0;
      for (NodeId v : step.tauOps) {
        const int ti = tauIndexOfSlot_[slotOf[v]];
        TAUHLS_ASSERT(ti >= 0, "TAUBM step lists a non-TAU op");
        m |= std::uint64_t{1} << ti;
      }
      stepMasks_.push_back(m);
    }
  }
}

template <typename DurFn>
int MakespanEngine::evaluate(DurFn&& dur) const {
  const std::size_t numOps = idOfSlot_.size();
  if (numOps == 0) return 0;
  int last = 0;
  std::vector<int> finish(numOps, 0);
  for (std::size_t i = 0; i < numOps; ++i) {
    int start = 0;
    for (std::uint32_t k = predOffsets_[i]; k < predOffsets_[i + 1]; ++k) {
      start = std::max(start, finish[preds_[k]] + 1);
    }
    finish[i] = start + dur(i) - 1;
    last = std::max(last, finish[i]);
  }
  return last + 1;
}

template <typename IsShortFn>
int MakespanEngine::syncCyclesWith(IsShortFn&& isShort) const {
  int cycles = 0;
  const std::size_t numSteps = stepTauOffsets_.size() - 1;
  for (std::size_t i = 0; i < numSteps; ++i) {
    bool anyLong = false;
    for (std::uint32_t k = stepTauOffsets_[i]; k < stepTauOffsets_[i + 1]; ++k) {
      anyLong |= !isShort(stepTauIds_[k]);
    }
    cycles += anyLong ? 2 : 1;
  }
  return cycles;
}

int MakespanEngine::distributedCycles(const OperandClasses& classes) const {
  TAUHLS_CHECK(classes.shortClass.size() == numNodes_,
               "operand-class vector size mismatch");
  return evaluate([&](std::size_t i) {
    return classes.isShort(idOfSlot_[i]) ? shortCycles_[i] : longCycles_[i];
  });
}

int MakespanEngine::syncCycles(const OperandClasses& classes) const {
  TAUHLS_CHECK(classes.shortClass.size() == numNodes_,
               "operand-class vector size mismatch");
  return syncCyclesWith([&](NodeId v) { return classes.isShort(v); });
}

std::uint64_t MakespanEngine::maskOf(const OperandClasses& classes) const {
  TAUHLS_CHECK(supportsMasks(), "mask interface limited to 64 TAU ops");
  TAUHLS_CHECK(classes.shortClass.size() == numNodes_,
               "operand-class vector size mismatch");
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < tauIds_.size(); ++i) {
    mask |= std::uint64_t{classes.isShort(tauIds_[i])} << i;
  }
  return mask;
}

int MakespanEngine::distributedCycles(std::uint64_t mask) const {
  TAUHLS_CHECK(supportsMasks(), "mask interface limited to 64 TAU ops");
  return evaluate([&](std::size_t i) {
    const int ti = tauIndexOfSlot_[i];
    return ti >= 0 && !((mask >> ti) & 1) ? longCycles_[i] : shortCycles_[i];
  });
}

int MakespanEngine::syncCycles(std::uint64_t mask) const {
  TAUHLS_CHECK(supportsMasks(), "mask interface limited to 64 TAU ops");
  int cycles = 0;
  for (std::uint64_t stepMask : stepMasks_) {
    cycles += (stepMask & ~mask) != 0 ? 2 : 1;
  }
  return cycles;
}

int MakespanEngine::bestDistributedCycles() const {
  return evaluate([&](std::size_t i) { return shortCycles_[i]; });
}

int MakespanEngine::worstDistributedCycles() const {
  return evaluate([&](std::size_t i) { return longCycles_[i]; });
}

int MakespanEngine::bestSyncCycles() const {
  // All-SD: every step costs one cycle.
  return static_cast<int>(stepTauOffsets_.size()) - 1;
}

int MakespanEngine::worstSyncCycles() const {
  // All-LD: every step with at least one TAU op spends its second half.
  int cycles = 0;
  const std::size_t numSteps = stepTauOffsets_.size() - 1;
  for (std::size_t i = 0; i < numSteps; ++i) {
    cycles += stepTauOffsets_[i + 1] > stepTauOffsets_[i] ? 2 : 1;
  }
  return cycles;
}

double MakespanEngine::syncExpectedCycles(double p) const {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  // A step with k TAU ops costs 1 cycle iff all k hit SD (probability p^k),
  // 2 otherwise: E[step] = p^k + 2 (1 - p^k) = 2 - p^k.
  double expectation = 0.0;
  const std::size_t numSteps = stepTauOffsets_.size() - 1;
  for (std::size_t i = 0; i < numSteps; ++i) {
    const int k = static_cast<int>(stepTauOffsets_[i + 1] - stepTauOffsets_[i]);
    expectation += 2.0 - std::pow(p, k);
  }
  return expectation;
}

namespace {

/// Largest frontier MakespanEngine::frontierHistogram keeps before it gives
/// up; past it the exact law comes from the Gray-code sweep instead.
constexpr std::size_t kFrontierStateCap = std::size_t{1} << 15;

/// One frontier of MakespanEngine::frontierHistogram: its distinct states
/// (fixed-width keys of 16-bit ready cycles in one flat array, found through
/// an open-addressing index) and, per state, 32-bit assignment counts over
/// the window [lo, hi] of SD counts that reach it.
class FrontierLayer {
 public:
  std::size_t size() const { return lo_.size(); }
  int width() const { return width_; }
  const std::uint16_t* key(std::size_t state) const {
    return keys_.data() + state * static_cast<std::size_t>(width_);
  }
  int lo(std::size_t state) const { return lo_[state]; }
  int hi(std::size_t state) const { return hi_[state]; }
  std::uint32_t* counts(std::size_t state) {
    return counts_.data() + offset_[state];
  }
  const std::uint32_t* counts(std::size_t state) const {
    return counts_.data() + offset_[state];
  }

  /// Empty the layer for keys of `width` words; buffers keep their capacity.
  void reset(int width) {
    width_ = width;
    keys_.clear();
    lo_.clear();
    hi_.clear();
    offset_.clear();
    counts_.clear();
    std::fill(index_.begin(), index_.end(), kEmpty);
  }

  /// The state with `key`, added if new; its SD window widens to cover
  /// [lo, hi].
  std::uint32_t insert(const std::uint16_t* key, int lo, int hi) {
    if (2 * (size() + 1) > index_.size()) grow();
    const std::size_t mask = index_.size() - 1;
    for (std::size_t slot = hashOf(key) & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t state = index_[slot];
      if (state == kEmpty) {
        index_[slot] = static_cast<std::uint32_t>(size());
        keys_.insert(keys_.end(), key, key + width_);
        lo_.push_back(static_cast<std::uint8_t>(lo));
        hi_.push_back(static_cast<std::uint8_t>(hi));
        return index_[slot];
      }
      if (std::memcmp(this->key(state), key,
                      sizeof(std::uint16_t) * static_cast<std::size_t>(width_)) ==
          0) {
        lo_[state] = static_cast<std::uint8_t>(std::min<int>(lo_[state], lo));
        hi_[state] = static_cast<std::uint8_t>(std::max<int>(hi_[state], hi));
        return state;
      }
    }
  }

  /// Lay out every state's count window, zeroed.
  void allocateCounts() {
    offset_.resize(size());
    std::uint32_t total = 0;
    for (std::size_t s = 0; s < size(); ++s) {
      offset_[s] = total;
      total += static_cast<std::uint32_t>(hi_[s] - lo_[s] + 1);
    }
    counts_.assign(total, 0);
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  std::uint64_t hashOf(const std::uint16_t* key) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ull;
    for (int j = 0; j < width_; ++j) {
      h = (h ^ key[j]) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
    }
    return h;
  }

  void grow() {
    index_.assign(std::max<std::size_t>(64, 2 * index_.size()), kEmpty);
    const std::size_t mask = index_.size() - 1;
    for (std::size_t s = 0; s < size(); ++s) {
      std::size_t slot = hashOf(key(s)) & mask;
      while (index_[slot] != kEmpty) slot = (slot + 1) & mask;
      index_[slot] = static_cast<std::uint32_t>(s);
    }
  }

  int width_ = 0;
  std::vector<std::uint16_t> keys_;
  std::vector<std::uint8_t> lo_;
  std::vector<std::uint8_t> hi_;
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> index_;
};

}  // namespace

std::optional<MakespanHistogram> MakespanEngine::frontierHistogram() const {
  const int n = numTauOps();
  // 32-bit counts hold the 2^n assignments and 8-bit windows the SD counts.
  TAUHLS_CHECK(n <= 31, "frontier histogram limited to 31 TAU ops");
  const std::size_t numOps = idOfSlot_.size();
  // Ready cycles are 16-bit keys: bound them by the all-slowest serial sum.
  long long bound = 0;
  for (std::size_t i = 0; i < numOps; ++i) {
    bound += std::max(shortCycles_[i], longCycles_[i]);
  }
  if (bound > 0xFFFF) return std::nullopt;

  // lastReader[v]: the highest slot reading slot v (v itself if none); a
  // slot stays in the frontier key until its last reader has been walked.
  std::vector<std::uint32_t> lastReader(numOps);
  for (std::size_t v = 0; v < numOps; ++v) {
    lastReader[v] = static_cast<std::uint32_t>(v);
    for (std::uint32_t k = succOffsets_[v]; k < succOffsets_[v + 1]; ++k) {
      lastReader[v] = std::max(lastReader[v], succs_[k]);
    }
  }

  // Key layout: ready cycle of each live slot (in `live` order), then the
  // running makespan.  The walk starts from one state, all counts at SD 0.
  std::vector<std::uint32_t> live;
  std::vector<int> positionOf(numOps, -1);
  std::vector<int> predPositions;
  std::vector<int> keptPositions;
  std::vector<std::uint32_t> survivors;
  std::vector<std::uint32_t> dest;
  std::vector<std::uint16_t> childKey;
  FrontierLayer cur;
  FrontierLayer next;
  cur.reset(1);
  const std::uint16_t zero = 0;
  cur.insert(&zero, 0, 0);
  cur.allocateCounts();
  cur.counts(0)[0] = 1;

  for (std::size_t i = 0; i < numOps; ++i) {
    const int width = cur.width();
    predPositions.clear();
    for (std::uint32_t k = predOffsets_[i]; k < predOffsets_[i + 1]; ++k) {
      predPositions.push_back(positionOf[preds_[k]]);
    }
    keptPositions.clear();
    survivors.clear();
    for (std::size_t j = 0; j < live.size(); ++j) {
      if (lastReader[live[j]] > i) {
        keptPositions.push_back(static_cast<int>(j));
        survivors.push_back(live[j]);
      }
    }
    const bool read = lastReader[i] > i;
    if (read) survivors.push_back(static_cast<std::uint32_t>(i));
    live.swap(survivors);
    for (std::size_t j = 0; j < live.size(); ++j) {
      positionOf[live[j]] = static_cast<int>(j);
    }

    // Branch b: duration and SD-count shift.  A TAU slot splits into its SD
    // and LD branches; a fixed slot takes its one duration.
    const bool tau = tauIndexOfSlot_[i] >= 0;
    const int numBranches = tau ? 2 : 1;
    const int durations[2] = {shortCycles_[i], longCycles_[i]};
    const int shifts[2] = {tau ? 1 : 0, 0};
    const int childWidth = static_cast<int>(live.size()) + 1;
    childKey.resize(static_cast<std::size_t>(childWidth));
    next.reset(childWidth);
    dest.resize(cur.size() * static_cast<std::size_t>(numBranches));
    for (std::size_t s = 0; s < cur.size(); ++s) {
      const std::uint16_t* key = cur.key(s);
      int start = 0;
      for (int pos : predPositions) start = std::max<int>(start, key[pos]);
      for (int b = 0; b < numBranches; ++b) {
        const int ready = start + durations[b];
        std::size_t w = 0;
        for (int pos : keptPositions) childKey[w++] = key[pos];
        if (read) childKey[w++] = static_cast<std::uint16_t>(ready);
        childKey[w] =
            static_cast<std::uint16_t>(std::max<int>(key[width - 1], ready));
        dest[s * numBranches + b] = next.insert(
            childKey.data(), cur.lo(s) + shifts[b], cur.hi(s) + shifts[b]);
      }
      if (next.size() > kFrontierStateCap) return std::nullopt;
    }
    next.allocateCounts();
    for (std::size_t s = 0; s < cur.size(); ++s) {
      const std::uint32_t* from = cur.counts(s);
      const int len = cur.hi(s) - cur.lo(s) + 1;
      for (int b = 0; b < numBranches; ++b) {
        const std::uint32_t c = dest[s * numBranches + b];
        std::uint32_t* to = next.counts(c) + (cur.lo(s) + shifts[b] - next.lo(c));
        for (int k = 0; k < len; ++k) to[k] += from[k];
      }
    }
    std::swap(cur, next);
  }

  // Only the running makespan is left in the key.
  MakespanHistogram h;
  h.tauCount = n;
  for (std::size_t s = 0; s < cur.size(); ++s) {
    const int ready = cur.key(s)[0];
    const int cycles = numOps == 0 ? 0 : std::max(1, ready);
    const std::uint32_t* counts = cur.counts(s);
    for (int sd = cur.lo(s); sd <= cur.hi(s); ++sd) {
      const std::uint32_t count = counts[sd - cur.lo(s)];
      if (count != 0) h.buckets[{cycles, sd}] += count;
    }
  }
  return h;
}

MakespanEngine::DistributedSweep::DistributedSweep(const MakespanEngine& engine)
    : e_(&engine),
      dur_(engine.shortCycles_),
      finish_(engine.idOfSlot_.size(), 0),
      dirtyWords_((engine.idOfSlot_.size() + 63) / 64, 0) {
  TAUHLS_CHECK(engine.supportsMasks(), "mask interface limited to 64 TAU ops");
  mask_ = engine.tauIds_.empty()
              ? 0
              : ~std::uint64_t{0} >> (64 - engine.tauIds_.size());
  if (!engine.idOfSlot_.empty()) evalFull(mask_);
}

int MakespanEngine::DistributedSweep::makespan() const {
  if (e_->idOfSlot_.empty()) return 0;
  int last = 0;
  for (std::uint32_t t : e_->terminals_) last = std::max(last, finish_[t]);
  return last + 1;
}

int MakespanEngine::DistributedSweep::evalFull(std::uint64_t mask) {
  mask_ = mask;
  for (std::size_t i = 0; i < e_->tauSlots_.size(); ++i) {
    const std::uint32_t slot = e_->tauSlots_[i];
    dur_[slot] = (mask >> i) & 1 ? e_->shortCycles_[slot]
                                 : e_->longCycles_[slot];
  }
  const std::size_t numOps = e_->idOfSlot_.size();
  for (std::size_t i = 0; i < numOps; ++i) {
    // start = max over preds of (finish + 1), folded as gatherMax + 1; the
    // empty sentinel -1 keeps source slots at start 0.
    const std::uint32_t off = e_->predOffsets_[i];
    const int start =
        common::simd::gatherMax(finish_.data(), e_->preds_.data() + off,
                                e_->predOffsets_[i + 1] - off, -1) +
        1;
    finish_[i] = start + dur_[i] - 1;
  }
  return makespan();
}

int MakespanEngine::DistributedSweep::flipTau(int tauIndex) {
  mask_ ^= std::uint64_t{1} << tauIndex;
  const std::uint32_t flipped = e_->tauSlots_[static_cast<std::size_t>(tauIndex)];
  dur_[flipped] = (mask_ >> tauIndex) & 1 ? e_->shortCycles_[flipped]
                                          : e_->longCycles_[flipped];
  dirtyWords_[flipped >> 6] |= std::uint64_t{1} << (flipped & 63);
  // Consume dirty slots in ascending order: every successor has a higher
  // slot number, so a marked successor's bit is always still ahead of the
  // scan and each affected slot is recomputed exactly once per flip.
  for (std::size_t wi = flipped >> 6; wi < dirtyWords_.size(); ++wi) {
    while (dirtyWords_[wi] != 0) {
      const std::uint32_t slot =
          static_cast<std::uint32_t>((wi << 6) |
                                     std::countr_zero(dirtyWords_[wi]));
      dirtyWords_[wi] &= dirtyWords_[wi] - 1;  // clear lowest set bit
      const std::uint32_t off = e_->predOffsets_[slot];
      const int start =
          common::simd::gatherMax(finish_.data(), e_->preds_.data() + off,
                                  e_->predOffsets_[slot + 1] - off, -1) +
          1;
      const int newFinish = start + dur_[slot] - 1;
      if (newFinish == finish_[slot]) continue;
      finish_[slot] = newFinish;
      for (std::uint32_t k = e_->succOffsets_[slot];
           k < e_->succOffsets_[slot + 1]; ++k) {
        const std::uint32_t succ = e_->succs_[k];
        dirtyWords_[succ >> 6] |= std::uint64_t{1} << (succ & 63);
      }
    }
  }
  return makespan();
}

void MakespanEngine::DistributedSweep::evalChunk(std::uint64_t base,
                                                 std::uint64_t count,
                                                 int* cycles) {
  TAUHLS_ASSERT(std::has_single_bit(count) && base % count == 0,
                "chunk must be an aligned power-of-two mask range");
  cycles[0] = evalFull(base);
  if (count <= 1) return;
  // Gray-code enumeration: step o flips exactly one TAU op, so every mask of
  // the chunk is reached by a single delta propagation.  Gray position j is
  // flipped 2^(width-1-j) times; any bijection of positions onto the chunk's
  // TAU ops still visits each mask exactly once (at offset = xor of the
  // flipped bits), so positions are assigned to ops by ascending successor-
  // cone size: the op whose flip recomputes the fewest slots flips the most
  // often.  The permutation depends only on the engine and `count`, and the
  // output buffer is indexed by mask offset, so downstream accumulation
  // order -- and with it bit-level determinism -- is unaffected.
  const int width = std::countr_zero(count);
  std::array<int, 64> order;
  for (int j = 0; j < width; ++j) order[static_cast<std::size_t>(j)] = j;
  // Stable insertion sort by cone size (width <= 64, no temp allocation).
  for (int j = 1; j < width; ++j) {
    const int key = order[static_cast<std::size_t>(j)];
    const int cone = e_->tauConeSize_[static_cast<std::size_t>(key)];
    int k = j;
    while (k > 0 &&
           e_->tauConeSize_[static_cast<std::size_t>(
               order[static_cast<std::size_t>(k - 1)])] > cone) {
      order[static_cast<std::size_t>(k)] = order[static_cast<std::size_t>(k - 1)];
      --k;
    }
    order[static_cast<std::size_t>(k)] = key;
  }
  std::uint64_t offset = 0;
  for (std::uint64_t o = 1; o < count; ++o) {
    const int tau = order[static_cast<std::size_t>(std::countr_zero(o))];
    offset ^= std::uint64_t{1} << tau;
    cycles[offset] = flipTau(tau);
  }
}

}  // namespace tauhls::sim
