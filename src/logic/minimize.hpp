// Two-level minimization.
//
// A function is given either as an explicit TruthTable or as cube lists
// (CubeFunction: onset and offset cubes, don't-care elsewhere).
//
// Table engines (the Reference regime, and the oracle of the cube engines):
//  * minimizeExact: Quine-McCluskey prime generation + essential extraction +
//    greedy cover of the remainder.  Exact primes; near-minimal covers.
//    Practical up to ~14 variables.
//  * minimizeExpandReference: ESPRESSO-style single-cube expansion against
//    the offset, one scan of the offset rows per trial literal drop.
//
// Cube engines (synth::synthesize's Fast regime; no row sweep):
//  * primesFromOffset: the exact primes by Nelson's method, multiplying out
//    the complement of the offset, in QM's emission order.
//  * expandCubes: minimizeExpandReference's decisions on cube lists, at any
//    width up to 64 variables.
//
// minimize() dispatches on variable count.  All results are verified
// implementable against the spec by `implements`.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

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

/// Heuristic expand-based minimization of a table: onset rows in ascending
/// order seed cubes, and literal v (v = 0, 1, ...) is dropped when the
/// widened cube covers no offset row (one Cube::covers call per offset row
/// per trial).  The Reference regime's expand and the cube engines' oracle.
Cover minimizeExpandReference(const TruthTable& tt);

/// Which implementations minimizeExact() and synth::synthesize use: Fast
/// (sort+hash QM; cube lists, the cube engines and cached, deduplicated
/// functions in synthesis) or Reference (map-and-scan QM; one table row per
/// Fsm::step, uncached).  Results are identical either way; a bench/test
/// hook (bench/kernel_speed.cpp times the equivalence suite under both
/// regimes).
enum class MinimizerImpl { Fast, Reference };
void setMinimizerImpl(MinimizerImpl impl);
MinimizerImpl minimizerImpl();

/// The table dispatch: minimizeExact up to 14 variables (and at most 4096
/// onset + dc rows), minimizeExpandReference beyond.  A pure function of
/// the table: reuse across calls lives a level up, in synth::synthesize's
/// per-controller cache.
Cover minimize(const TruthTable& tt);

/// True when `cover` is 1 on every onset row and 0 on every offset row of
/// `spec` (don't-cares unconstrained).
bool implements(const Cover& cover, const TruthTable& spec);

// --- cube engines ------------------------------------------------------------

/// A single-output function of up to 64 variables as cube lists: 1 on the
/// onset cubes, 0 on the offset cubes, don't-care everywhere else.  The two
/// lists must not meet; cubes within one list may overlap.
struct CubeFunction {
  int numVars = 0;
  std::vector<Cube> onset;
  std::vector<Cube> offset;
};

/// The explicit table of `f` (at most 24 variables).
TruthTable toTruthTable(const CubeFunction& f);

/// The prime implicants of onset + dc, by Nelson's method: the product of
/// the complements of the offset cubes, multiplied out with absorption, is
/// exactly the set of primes.  Emitted in primeImplicants' order: minterm
/// primes first by ascending value, then by its sort key.  nullopt when an
/// intermediate product passes 1024 cubes (minimize then runs
/// primeImplicants on the table).
std::optional<std::vector<Cube>> primesFromOffset(const CubeFunction& f);

/// minimizeExpandReference on cube lists, with the same decisions in the
/// same order: the uncovered onset is a list of disjoint cubes, sharped by
/// each new cover cube; the next seed is its smallest minterm; literal v
/// (v = 0, 1, ...) is dropped when the widened cube meets no offset cube.
/// Equal to minimizeExpandReference(toTruthTable(f)) cube for cube.
Cover expandCubes(const CubeFunction& f);

/// True when no cube of `cover` meets an offset cube and `cover` covers
/// every onset cube.
bool implements(const Cover& cover, const CubeFunction& f);

/// The cube-domain dispatch, equal to minimize(toTruthTable(f)) at every
/// width that table admits.  Up to 14
/// variables it builds the table (at most 16K rows) and, when onset + dc is
/// at most 4096 rows, covers the table from primesFromOffset's primes
/// (primeImplicants past the cap); otherwise it runs expandCubes, with no
/// table at all.
Cover minimize(const CubeFunction& f);

}  // namespace tauhls::logic
