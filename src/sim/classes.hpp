// Operand-class assignment: for every TAU-bound operation, whether its input
// operands fall in the short-delay (SD) class.  This is the paper's workload
// abstraction -- each TAU op is SD with probability P, i.i.d. (§2.3, §5).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduled_dfg.hpp"

namespace tauhls::sim {

struct OperandClasses {
  /// Per-node flag (indexed by NodeId); meaningful only for TAU-bound ops.
  std::vector<bool> shortClass;

  bool isShort(dfg::NodeId v) const { return shortClass[v]; }
};

/// All ops in the SD class (the best case).
OperandClasses allShort(const sched::ScheduledDfg& s);

/// All ops in the LD class (the worst case).
OperandClasses allLong(const sched::ScheduledDfg& s);

/// The TAU-bound ops of `s` in ascending NodeId order (the enumeration basis
/// for exact latency statistics).
std::vector<dfg::NodeId> tauOps(const sched::ScheduledDfg& s);

/// Classes from a bitmask over tauOps(s): bit i set => tauOps[i] is SD.
OperandClasses fromMask(const sched::ScheduledDfg& s, std::uint64_t mask);

/// Seeded Bernoulli(p) sample.
OperandClasses randomClasses(const sched::ScheduledDfg& s, double p,
                             std::uint64_t seed);

/// As above, writing into a caller-provided buffer so sampling loops reuse
/// one allocation.  `taus` must be tauOps(s) (precomputed once by the caller);
/// the draw sequence is identical to the allocating overload bit-for-bit.
void randomClasses(const sched::ScheduledDfg& s,
                   const std::vector<dfg::NodeId>& taus, double p,
                   std::uint64_t seed, OperandClasses& out);

/// Seeded Bernoulli(p) sample as a bitmask over n TAU ops (bit i set => TAU
/// op i is SD).  Draws the same mt19937_64(seed) Bernoulli sequence as
/// randomClasses, so mask-native Monte-Carlo estimates match it bit-for-bit.
/// Both samplers compute only the first n engine outputs (n <= 156) rather
/// than seeding and twisting a whole 312-word std::mt19937_64; the draws
/// equal std::mt19937_64 + std::bernoulli_distribution as libstdc++
/// implements them.
std::uint64_t randomClassMask(int n, double p, std::uint64_t seed);

}  // namespace tauhls::sim
