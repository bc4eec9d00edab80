// Abstract cycle-accurate latency engines (DESIGN.md §3 semantics).
//
//  * distributedMakespanCycles: the distributed control unit preserves all
//    concurrency -- op start = max(finish of data predecessors, finish of the
//    previous op on the same unit) + 1; TAU ops take 1 cycle (SD) or 2 (LD).
//  * syncMakespanCycles: the CENT-SYNC baseline synchronizes each TAUBM time
//    step -- a split step costs 2 cycles as soon as *any* of its TAU ops is
//    in the LD class (paper §2.3 problem 1), 1 otherwise.
//
// Both engines are cross-checked against FSM-level interpretation in
// tests/test_sim.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "sim/classes.hpp"

namespace tauhls::sim {

/// Exact makespan law of a schedule (or a composition of schedules) over
/// the independent SD/LD class assignments of its TAU-bound ops.  It does
/// not depend on P: every P-statistic is a weighting of these integer
/// counts (sim/stats.hpp, histogramAverageCycles).
struct MakespanHistogram {
  int tauCount = 0;
  /// (makespan cycles, SD-class op count) -> number of assignments.
  std::map<std::pair<int, int>, std::uint64_t> buckets;

  /// The neutral element of convolution: zero TAU ops, zero cycles.
  static MakespanHistogram unit();
};

/// Makespan (clock cycles) of one iteration under the distributed controllers.
int distributedMakespanCycles(const sched::ScheduledDfg& s,
                              const OperandClasses& classes);

/// Makespan (clock cycles) under the synchronized centralized baseline.
int syncMakespanCycles(const sched::ScheduledDfg& s,
                       const OperandClasses& classes);

/// Per-op finish cycles of the distributed schedule (diagnostics/Gantt).
std::vector<int> distributedFinishCycles(const sched::ScheduledDfg& s,
                                         const OperandClasses& classes);

/// The same when op v occupies its unit for opCycles[v] cycles (indexed by
/// NodeId) -- e.g. multi-level VCAU durations.
std::vector<int> distributedFinishCycles(const sched::ScheduledDfg& s,
                                         const std::vector<int>& opCycles);

/// Precomputed evaluation context for the latency-statistics kernels.
///
/// The schedule, binding and topological bookkeeping are flattened once into
/// struct-of-arrays CSR form: per-slot short/long cycle counts, a combined
/// predecessor index (data predecessors + same-unit chaining), the reverse
/// successor index used for incremental re-evaluation, and the terminal slots
/// whose finish times define the makespan.  On top of that sit three
/// evaluation tiers:
///
///  * one-shot evaluation from an OperandClasses vector or directly from a
///    TAU-assignment bitmask (bit i of the mask <=> tauIds()[i] is SD) --
///    O(V + E) per call, a single transient finish buffer;
///  * closed-form CentSync statistics: each TAUBM step costs 2 cycles unless
///    all of its k TAU ops hit SD, so E[cycles] = sum over steps of
///    (2 - p^k) -- O(steps) regardless of the TAU count;
///  * DistributedSweep, a reusable zero-allocation scratch evaluator whose
///    flipTau() toggles a single TAU op and worklist-propagates the duration
///    delta through the successor index, recomputing only affected slots.
///    Enumerating masks in Gray-code order makes every step a single flip,
///    which is what drops the exact-enumeration sweeps from O(2^n * (V+E))
///    to roughly O(2^n) on the paper benchmarks.
///
/// The exact Distributed law comes without enumeration: frontierHistogram()
/// walks the slots once, carrying only the ready cycles a later slot still
/// reads.
class MakespanEngine {
 public:
  explicit MakespanEngine(const sched::ScheduledDfg& s);

  /// Number of operation slots (non-input nodes).
  std::size_t numOps() const { return idOfSlot_.size(); }
  /// Number of TAU-bound ops == the enumeration-mask width.
  int numTauOps() const { return static_cast<int>(tauIds_.size()); }
  /// TAU-bound ops in ascending NodeId order (== tauOps(s); the bit order of
  /// every mask-native interface below).
  const std::vector<dfg::NodeId>& tauIds() const { return tauIds_; }
  /// Mask-native interfaces hold one bit per TAU op in a 64-bit word.
  bool supportsMasks() const { return tauIds_.size() <= 64; }

  // --- one-shot evaluation ----------------------------------------------
  int distributedCycles(const OperandClasses& classes) const;
  int syncCycles(const OperandClasses& classes) const;

  /// The enumeration mask encoding `classes` (bit i set <=> tauIds()[i] SD).
  std::uint64_t maskOf(const OperandClasses& classes) const;
  /// Mask-native evaluation; never materializes an OperandClasses vector.
  int distributedCycles(std::uint64_t mask) const;
  int syncCycles(std::uint64_t mask) const;

  // --- extremes (all-SD / all-LD), no class vector needed ---------------
  int bestDistributedCycles() const;
  int worstDistributedCycles() const;
  int bestSyncCycles() const;
  int worstSyncCycles() const;

  /// Closed-form expected CentSync makespan under i.i.d. Bernoulli(p) SD
  /// classes: sum over TAUBM steps of (2 - p^|tauOps(step)|).  O(steps),
  /// independent of the TAU count -- no enumeration, no cap.
  double syncExpectedCycles(double p) const;

  /// Exact Distributed makespan law by a frontier dynamic program over the
  /// slots in topological order.  A state is the ready cycle of every slot
  /// a later slot still reads plus the running makespan; each state keeps
  /// integer assignment counts per SD count.  Returns std::nullopt once a
  /// frontier exceeds kFrontierStateCap (2^15) states; the caller then falls
  /// back to enumeration.
  std::optional<MakespanHistogram> frontierHistogram() const;

  /// Reusable scratch context for enumeration/sampling hot loops: all
  /// buffers are allocated once and reused across masks, so a full
  /// re-evaluation is allocation-free and a single-TAU flip only recomputes
  /// the slots reachable from the flipped op.  Not thread-safe; use one
  /// sweep per worker.
  class DistributedSweep {
   public:
    explicit DistributedSweep(const MakespanEngine& engine);

    /// Full O(V + E) re-evaluation at `mask`; returns the makespan.
    int evalFull(std::uint64_t mask);
    /// Toggle TAU op `tauIndex` and delta-propagate; returns the makespan.
    int flipTau(int tauIndex);
    /// Fill cycles[offset] with the makespan at mask `base + offset` for all
    /// offsets in [0, count) by Gray-code single-flip enumeration.  `count`
    /// must be a power of two and `base` a multiple of it.
    void evalChunk(std::uint64_t base, std::uint64_t count, int* cycles);

    std::uint64_t mask() const { return mask_; }

   private:
    int makespan() const;

    const MakespanEngine* e_;
    std::uint64_t mask_ = 0;
    std::vector<int> dur_;     ///< current per-slot durations
    std::vector<int> finish_;  ///< current per-slot finish cycles
    /// Dirty slots as a packed bitmask (bit slot%64 of word slot/64).  Slots
    /// are topologically numbered, so scanning set bits in ascending order
    /// visits every affected slot after all of its predecessors -- a
    /// branch-light replacement for a priority queue.
    std::vector<std::uint64_t> dirtyWords_;
  };

 private:
  friend class DistributedSweep;

  template <typename DurFn>
  int evaluate(DurFn&& dur) const;
  template <typename IsShortFn>
  int syncCyclesWith(IsShortFn&& isShort) const;

  std::size_t numNodes_ = 0;

  // Operation slots in topological order (struct-of-arrays).
  std::vector<dfg::NodeId> idOfSlot_;
  std::vector<int> shortCycles_;
  std::vector<int> longCycles_;
  std::vector<int> tauIndexOfSlot_;      ///< -1 for fixed-unit slots
  // CSR predecessor index: data predecessors + previous op on the same unit
  // (both constrain the start cycle identically).
  std::vector<std::uint32_t> predOffsets_;
  std::vector<std::uint32_t> preds_;
  // CSR successor index (reverse of preds_), for delta propagation.
  std::vector<std::uint32_t> succOffsets_;
  std::vector<std::uint32_t> succs_;
  std::vector<std::uint32_t> terminals_;  ///< slots with no successors

  // TAU ops, ascending NodeId (mask bit order).
  std::vector<dfg::NodeId> tauIds_;
  std::vector<std::uint32_t> tauSlots_;
  /// Slots reachable from each TAU op (its own slot included): the cost of
  /// one flipTau.  evalChunk flips low-cone ops most often.
  std::vector<int> tauConeSize_;

  // TAUBM steps: CSR of per-step TAU NodeIds plus, when the design fits a
  // 64-bit mask, the per-step TAU-index masks for O(steps) sync evaluation.
  std::vector<std::uint32_t> stepTauOffsets_;
  std::vector<dfg::NodeId> stepTauIds_;
  std::vector<std::uint64_t> stepMasks_;
};

}  // namespace tauhls::sim
