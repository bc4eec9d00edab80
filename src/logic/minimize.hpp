// Two-level minimization.
//
// Two engines:
//  * minimizeExact: Quine-McCluskey prime generation + essential extraction +
//    greedy cover of the remainder.  Exact primes; near-minimal covers.
//    Practical up to ~14 variables.
//  * minimizeExpand: ESPRESSO-style single-cube expansion against the offset;
//    heuristic but fast, handles larger variable counts.
//
// minimize() dispatches on variable count.  All results are verified
// implementable against the spec by `implements`.
#pragma once

#include "logic/cover.hpp"
#include "logic/truth_table.hpp"

namespace tauhls::logic {

/// Quine-McCluskey prime implicants of (onset + dcset).  Fast path: one
/// stable sort recovers the bucket order and merge partners are hash
/// lookups (flip one clear care bit), replacing the reference's per-level
/// map-of-buckets and all-pairs merge scans.  A table that leaves some
/// variables unread (flipping one never changes a row, don't-cares
/// included) is first projected onto its support: QM runs on the smaller
/// table and each prime is lifted back with the unread variables free, then
/// sorted into QM's emission order by (popcount(F), care | b,
/// popcount(value), value, b) -- F the free mask, b its lowest bit.  Emits
/// the same primes in the same order as primeImplicantsReference.
std::vector<Cube> primeImplicants(const TruthTable& tt);

/// The original map-and-scan QM prime generation.  Kept callable for
/// cross-checking and for the kernel benchmark's naive regime.
std::vector<Cube> primeImplicantsReference(const TruthTable& tt);

/// Exact-prime minimization (QM); requires numVars <= 14.
Cover minimizeExact(const TruthTable& tt);

/// Heuristic expand-based minimization; any supported variable count.
/// Bit-parallel: row sets are 64-rows-per-word bitsets, so each trial
/// literal drop is tested against the offset in O(rows/64) word operations.
/// Produces the same cover as minimizeExpandReference (same expansion
/// decisions in the same order).
Cover minimizeExpand(const TruthTable& tt);

/// The scalar reference expand (one Cube::covers call per offset row per
/// trial).  Kept callable for cross-checking and for the kernel benchmark's
/// naive regime; bit-identical covers to minimizeExpand.
Cover minimizeExpandReference(const TruthTable& tt);

/// Which implementations minimize()/minimizeExact() dispatch to: Fast (the
/// bit-parallel expand and sort+hash QM above) or Reference (the original
/// scalar scans).  synth::synthesize keys its truth-table row sweep and its
/// synthesis cache off the same hook (compiled bitmask guards and cached,
/// deduplicated tables vs per-row Fsm::step, uncached).  Results are
/// identical either way; a bench/test hook (bench/kernel_speed.cpp times
/// the equivalence suite under both regimes).
enum class MinimizerImpl { Fast, Reference };
void setMinimizerImpl(MinimizerImpl impl);
MinimizerImpl minimizerImpl();

/// Dispatch: exact up to 14 variables (and at most 4096 onset + dc rows),
/// expand beyond.  A pure function of the table: reuse across calls lives a
/// level up, in synth::synthesize's per-controller cache.
Cover minimize(const TruthTable& tt);

/// True when `cover` is 1 on every onset row and 0 on every offset row of
/// `spec` (don't-cares unconstrained).
bool implements(const Cover& cover, const TruthTable& spec);

}  // namespace tauhls::logic
