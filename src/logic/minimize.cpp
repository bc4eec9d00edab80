#include "logic/minimize.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"

namespace tauhls::logic {

namespace {

struct CubeKey {
  std::uint64_t care;
  std::uint64_t value;
  auto operator<=>(const CubeKey&) const = default;
};

/// Sort-and-lookup QM over every variable of `tt`; primeImplicants runs it
/// on the table's projection onto its support.
std::vector<Cube> qmPrimes(const TruthTable& tt) {
  // Level 0: all onset + dc minterms as cubes.
  std::vector<Cube> current;
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    if (tt.get(r) != Ternary::Zero) {
      current.push_back(Cube::minterm(tt.numVars(), r));
    }
  }
  const int vars = tt.numVars();
  const std::size_t space = std::size_t{1} << vars;

  // Scratch reused across levels.
  //  * upperPos/upperEpoch: direct-index (valueMask -> sorted position) map
  //    for the current upper bucket; epoch stamps avoid clearing.
  //  * dedup: one bit per (care, value) pair.  A level-k cube has exactly
  //    vars-k care bits, so keys never repeat across levels and the bitmap
  //    is never cleared; with vars <= 14 it is at most 2^28 bits (32 MiB),
  //    and at the <= 14-variable sizes minimizeExact admits it replaces one
  //    hash insert per generated cube with a test-and-set.
  std::vector<std::uint32_t> upperPos(space, 0);
  std::vector<std::uint32_t> upperEpoch(space, 0);
  std::uint32_t epoch = 0;
  std::vector<std::uint64_t> dedup((space * space + 63) / 64, 0);

  std::vector<Cube> primes;
  while (!current.empty()) {
    const std::size_t n = current.size();
    // Recover the reference bucket order -- (care mask, value popcount)
    // ascending, original index ascending within a bucket -- with one sort
    // of precomputed packed keys instead of a node-based map of vectors.
    // pc(value) <= 14 fits in 4 bits; index tie-break keeps it stable.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = {(current[i].careMask() << 4) |
                      static_cast<std::uint64_t>(
                          std::popcount(current[i].valueMask())),
                  static_cast<std::uint32_t>(i)};
    }
    std::sort(order.begin(), order.end());
    std::vector<std::size_t> groupStart;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == 0 || order[k].first != order[k - 1].first) {
        groupStart.push_back(k);
      }
    }
    groupStart.push_back(n);

    std::vector<bool> merged(n, false);
    std::vector<Cube> next;
    for (std::size_t g = 0; g + 2 < groupStart.size() + 1; ++g) {
      const std::size_t lo = groupStart[g];
      const std::size_t hi = groupStart[g + 1];
      // The adjacent bucket (same care, popcount + 1), if it exists, is the
      // very next group in the sorted order.
      if (hi == n) continue;
      if (order[hi].first != order[lo].first + 1) continue;
      const std::uint64_t care = order[lo].first >> 4;
      const std::size_t upperHi = groupStart[g + 2];

      // Each upper cube is identified by its value mask (unique within a
      // bucket), so i's merge partners are direct lookups: flip one clear
      // care bit of i's value.
      ++epoch;
      for (std::size_t k = hi; k < upperHi; ++k) {
        const std::uint64_t value = current[order[k].second].valueMask();
        upperPos[value] = static_cast<std::uint32_t>(k);
        upperEpoch[value] = epoch;
      }
      std::vector<std::pair<std::size_t, int>> partners;  // (sorted pos, var)
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t i = order[k].second;
        const std::uint64_t value = current[i].valueMask();
        partners.clear();
        std::uint64_t clear = care & ~value;
        while (clear != 0) {
          const int v = std::countr_zero(clear);
          clear &= clear - 1;
          const std::uint64_t partner = value | (std::uint64_t{1} << v);
          if (upperEpoch[partner] == epoch) {
            partners.emplace_back(upperPos[partner], v);
          }
        }
        // Reference order: upper cubes in ascending original index, which is
        // ascending position within the sorted bucket.
        std::sort(partners.begin(), partners.end());
        for (const auto& [pos, v] : partners) {
          merged[i] = merged[order[pos].second] = true;
          Cube m = current[i];
          m.dropLiteral(v);
          const std::size_t key =
              (static_cast<std::size_t>(m.careMask()) << vars) | m.valueMask();
          const std::uint64_t bit = std::uint64_t{1} << (key & 63);
          if (!(dedup[key >> 6] & bit)) {
            dedup[key >> 6] |= bit;
            next.push_back(m);
          }
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!merged[i]) primes.push_back(current[i]);
    }
    current = std::move(next);
  }
  return primes;
}

/// Sort primes into the order QM emits them on the full table.  It emits
/// level by level (popcount of the free mask F), and within a level in
/// order of first generation.  Level 0 is the unmerged minterms, by
/// ascending value.  Above it, a cube's first merge drops its lowest free
/// variable b: it comes from the bucket (care | b, popcount(value)), whose
/// lower cube has the cube's own value and whose partner is value | b.
/// Buckets run in (care, popcount) order, lower cubes in ascending value,
/// partners in ascending variable.
void sortInQmOrder(std::vector<Cube>& primes) {
  if (primes.empty()) return;
  const std::uint64_t all = varsMask(primes.front().numVars());
  const auto key = [all](const Cube& c) {
    const std::uint64_t free = all & ~c.careMask();
    if (free == 0) {
      return std::tuple(0, std::uint64_t{0}, 0, c.valueMask(),
                        std::uint64_t{0});
    }
    const std::uint64_t b = std::uint64_t{1} << std::countr_zero(free);
    return std::tuple(std::popcount(free), c.careMask() | b,
                      std::popcount(c.valueMask()), c.valueMask(), b);
  };
  std::sort(primes.begin(), primes.end(),
            [&key](const Cube& a, const Cube& b) { return key(a) < key(b); });
}

/// The variables `tt` reads: v is unread when flipping it never changes a
/// row's value, don't-cares included.
std::uint64_t supportMask(const TruthTable& tt) {
  std::uint64_t support = 0;
  for (int v = 0; v < tt.numVars(); ++v) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
      if (!(r & bit) && tt.get(r) != tt.get(r | bit)) {
        support |= bit;
        break;
      }
    }
  }
  return support;
}

}  // namespace

std::vector<Cube> primeImplicants(const TruthTable& tt) {
  TAUHLS_CHECK(tt.numVars() <= 14, "primeImplicants limited to 14 variables");
  const int vars = tt.numVars();
  const std::uint64_t all = varsMask(vars);
  const std::uint64_t support = supportMask(tt);
  if (support == all) return qmPrimes(tt);

  // Every prime of a function that ignores v has v free, so the primes are
  // the projection's primes with the unread variables left free.  Variable
  // i of the projection is the i-th lowest read variable; `row` walks the
  // subsets of `support` in ascending order, so it is projected row p
  // scattered back onto the read variables.
  TruthTable projected(std::popcount(support));
  std::uint64_t row = 0;
  for (std::uint64_t p = 0; p < projected.numRows(); ++p) {
    projected.set(p, tt.get(row));
    row = (row - support) & support;
  }
  std::vector<Cube> primes;
  for (const Cube& q : qmPrimes(projected)) {
    Cube c = Cube::full(vars);
    int i = 0;
    for (std::uint64_t m = support; m != 0; m &= m - 1, ++i) {
      if (q.hasLiteral(i)) {
        c.setLiteral(std::countr_zero(m), q.literalPositive(i));
      }
    }
    primes.push_back(c);
  }

  sortInQmOrder(primes);
  return primes;
}

std::vector<Cube> primeImplicantsReference(const TruthTable& tt) {
  TAUHLS_CHECK(tt.numVars() <= 14, "primeImplicants limited to 14 variables");
  // Level 0: all onset + dc minterms as cubes.
  std::vector<Cube> current;
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    if (tt.get(r) != Ternary::Zero) {
      current.push_back(Cube::minterm(tt.numVars(), r));
    }
  }
  std::vector<Cube> primes;
  while (!current.empty()) {
    // Group by care mask and by popcount of the value so only adjacent groups
    // are compared (classic QM bucketing).
    std::map<std::pair<std::uint64_t, int>, std::vector<std::size_t>> buckets;
    for (std::size_t i = 0; i < current.size(); ++i) {
      buckets[{current[i].careMask(),
               std::popcount(current[i].valueMask())}].push_back(i);
    }
    std::vector<bool> merged(current.size(), false);
    std::set<CubeKey> nextKeys;
    std::vector<Cube> next;
    for (const auto& [key, indices] : buckets) {
      auto upper = buckets.find({key.first, key.second + 1});
      if (upper == buckets.end()) continue;
      for (std::size_t i : indices) {
        for (std::size_t j : upper->second) {
          if (auto m = current[i].merge(current[j])) {
            merged[i] = merged[j] = true;
            if (nextKeys.insert({m->careMask(), m->valueMask()}).second) {
              next.push_back(*m);
            }
          }
        }
      }
    }
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (!merged[i]) primes.push_back(current[i]);
    }
    current = std::move(next);
  }
  return primes;
}

namespace {

MinimizerImpl gMinimizerImpl = MinimizerImpl::Fast;

/// Select a small subset of primes covering all onset rows: essential primes
/// first, then greedy by remaining coverage (ties: fewer literals).  The
/// greedy scoring runs on 64-rows-per-word onset bitsets; counts (and hence
/// selections) are identical to a per-row scan.
Cover coverFromPrimes(const TruthTable& tt, const std::vector<Cube>& primes) {
  const std::vector<std::uint64_t> onset = tt.onset();
  Cover result(tt.numVars());
  if (onset.empty()) return result;

  // cover matrix: for each onset row, the primes covering it; for each
  // prime, the onset rows it covers as a bitset.
  const std::size_t words = (onset.size() + 63) / 64;
  std::vector<std::vector<std::size_t>> coveredBy(onset.size());
  std::vector<std::vector<std::uint64_t>> rowsOf(
      primes.size(), std::vector<std::uint64_t>(words, 0));
  for (std::size_t p = 0; p < primes.size(); ++p) {
    for (std::size_t r = 0; r < onset.size(); ++r) {
      if (primes[p].covers(onset[r])) {
        coveredBy[r].push_back(p);
        rowsOf[p][r >> 6] |= std::uint64_t{1} << (r & 63);
      }
    }
  }
  std::vector<bool> selected(primes.size(), false);
  std::vector<std::uint64_t> rowDone(words, 0);

  auto selectPrime = [&](std::size_t p) {
    selected[p] = true;
    for (std::size_t w = 0; w < words; ++w) rowDone[w] |= rowsOf[p][w];
  };

  // Essential primes.
  for (std::size_t r = 0; r < onset.size(); ++r) {
    TAUHLS_ASSERT(!coveredBy[r].empty(), "onset row not covered by any prime");
    if (coveredBy[r].size() == 1 && !selected[coveredBy[r][0]]) {
      selectPrime(coveredBy[r][0]);
    }
  }
  // Greedy remainder.
  while (true) {
    std::size_t bestPrime = primes.size();
    std::size_t bestCount = 0;
    int bestLits = 0;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (selected[p]) continue;
      std::size_t count = 0;
      for (std::size_t w = 0; w < words; ++w) {
        count += static_cast<std::size_t>(
            std::popcount(rowsOf[p][w] & ~rowDone[w]));
      }
      if (count == 0) continue;
      const int lits = primes[p].numLiterals();
      if (count > bestCount || (count == bestCount && lits < bestLits)) {
        bestPrime = p;
        bestCount = count;
        bestLits = lits;
      }
    }
    if (bestPrime == primes.size()) break;
    selectPrime(bestPrime);
  }
  for (std::size_t p = 0; p < primes.size(); ++p) {
    if (selected[p]) result.add(primes[p]);
  }
  result.removeContained();
  TAUHLS_ASSERT(implements(result, tt),
                "prime cover does not implement the table");
  return result;
}

}  // namespace

Cover minimizeExact(const TruthTable& tt) {
  return coverFromPrimes(tt, gMinimizerImpl == MinimizerImpl::Reference
                                 ? primeImplicantsReference(tt)
                                 : primeImplicants(tt));
}

Cover minimizeExpandReference(const TruthTable& tt) {
  const std::vector<std::uint64_t> offset = tt.offset();
  const std::vector<std::uint64_t> onset = tt.onset();
  Cover result(tt.numVars());

  auto hitsOffset = [&offset](const Cube& c) {
    for (std::uint64_t r : offset) {
      if (c.covers(r)) return true;
    }
    return false;
  };

  std::unordered_set<std::uint64_t> covered;
  for (std::uint64_t row : onset) {
    if (covered.contains(row)) continue;
    Cube cube = Cube::minterm(tt.numVars(), row);
    // Expand: drop literals one by one while staying off the offset.
    for (int v = 0; v < tt.numVars(); ++v) {
      Cube trial = cube;
      trial.dropLiteral(v);
      if (!hitsOffset(trial)) cube = trial;
    }
    result.add(cube);
    for (std::uint64_t m : onset) {
      if (cube.covers(m)) covered.insert(m);
    }
  }
  result.removeContained();
  TAUHLS_ASSERT(implements(result, tt), "expand produced a non-implementing cover");
  return result;
}

void setMinimizerImpl(MinimizerImpl impl) { gMinimizerImpl = impl; }

MinimizerImpl minimizerImpl() { return gMinimizerImpl; }

namespace {

/// minimize()'s dispatch: exact QM up to this many variables...
constexpr int kExactMaxVars = 14;
/// ...and this many onset + dc rows.  QM's cost is driven by the onset+dc
/// minterm count; when don't-cares dominate (e.g. sparse one-hot encodings)
/// the heuristic is far cheaper and loses almost nothing.
constexpr std::uint64_t kExactMaxOnPlusDc = 4096;

bool takesExactPath(const TruthTable& tt) {
  if (tt.numVars() > kExactMaxVars) return false;
  std::uint64_t onPlusDc = 0;
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    onPlusDc += tt.get(r) != Ternary::Zero;
  }
  return onPlusDc <= kExactMaxOnPlusDc;
}

}  // namespace

Cover minimize(const TruthTable& tt) {
  if (takesExactPath(tt)) return minimizeExact(tt);
  return minimizeExpandReference(tt);
}

bool implements(const Cover& cover, const TruthTable& spec) {
  TAUHLS_CHECK(cover.numVars() == spec.numVars(),
               "cover/spec variable count mismatch");
  for (std::uint64_t r = 0; r < spec.numRows(); ++r) {
    const Ternary want = spec.get(r);
    if (want == Ternary::DontCare) continue;
    if (cover.evaluate(r) != (want == Ternary::One)) return false;
  }
  return true;
}

// --- cube engines ------------------------------------------------------------
//
// Cubes are raw (care, value) masks here; Cube's checked accessors cost more
// than the work in the inner loops.

namespace {

struct Term {
  std::uint64_t care;
  std::uint64_t value;  ///< zero outside care
};

bool meets(const Term& a, const Term& b) {
  return ((a.value ^ b.value) & a.care & b.care) == 0;
}

/// primesFromOffset gives up past this many cubes in one intermediate
/// product: unstructured minterm offsets grow to thousands of cubes, where
/// the table's QM is cheaper.
constexpr std::size_t kNelsonCubeCap = 1024;

bool containsTerm(const Term& big, const Term& small) {
  return (big.care & ~small.care) == 0 &&
         ((big.value ^ small.value) & big.care) == 0;
}

std::vector<Term> termsOf(const std::vector<Cube>& cubes, int numVars) {
  std::vector<Term> out;
  out.reserve(cubes.size());
  for (const Cube& c : cubes) {
    TAUHLS_CHECK(c.numVars() == numVars, "cube arity mismatch with function");
    out.push_back({c.careMask(), c.valueMask()});
  }
  return out;
}

/// pieces := pieces minus c, as disjoint cubes: a piece p that meets c is
/// split on each literal of c that p lacks, in ascending variable order.
void sharp(std::vector<Term>& pieces, const Term& c,
           std::vector<Term>& scratch) {
  scratch.clear();
  for (Term p : pieces) {
    if (!meets(p, c)) {
      scratch.push_back(p);
      continue;
    }
    for (std::uint64_t split = c.care & ~p.care; split != 0;
         split &= split - 1) {
      const std::uint64_t bit = split & (~split + 1);
      scratch.push_back({p.care | bit, p.value | (~c.value & bit)});
      p.care |= bit;
      p.value |= c.value & bit;
    }
  }
  pieces.swap(scratch);
}

}  // namespace

TruthTable toTruthTable(const CubeFunction& f) {
  TruthTable tt(f.numVars);
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    tt.set(r, Ternary::DontCare);
  }
  const auto fill = [&tt](const std::vector<Cube>& cubes, Ternary v) {
    for (const Cube& c : cubes) {
      // Walk the subsets of the free mask: every minterm of c.
      const std::uint64_t free = (tt.numRows() - 1) & ~c.careMask();
      std::uint64_t sub = 0;
      do {
        tt.set(c.valueMask() | sub, v);
        sub = (sub - free) & free;
      } while (sub != 0);
    }
  };
  fill(f.offset, Ternary::Zero);
  fill(f.onset, Ternary::One);
  return tt;
}

std::optional<std::vector<Cube>> primesFromOffset(const CubeFunction& f) {
  // The frontier is the product of the complements of the offset cubes read
  // so far, free of absorbed cubes; it starts as the constant 1.
  std::vector<Term> frontier = {{0, 0}};
  std::vector<Term> next;
  std::vector<Term> fresh;
  for (const Term& o : termsOf(f.offset, f.numVars)) {
    // A frontier cube off o already implies NOT o and stays.  One that
    // meets o is multiplied by the sum of o's complemented literals, less
    // the ones it contradicts.
    next.clear();
    fresh.clear();
    for (const Term& p : frontier) {
      if (!meets(p, o)) {
        next.push_back(p);
        continue;
      }
      for (std::uint64_t m = o.care & ~p.care; m != 0; m &= m - 1) {
        const std::uint64_t bit = m & (~m + 1);
        fresh.push_back({p.care | bit, p.value | (~o.value & bit)});
      }
    }
    // Absorption.  A kept cube is never inside a fresh one: that fresh cube
    // lies inside a frontier cube that meets o, and the frontier had no
    // absorbed cubes.  A fresh cube is kept unless a kept cube or an
    // earlier fresh cube with no more literals contains it; containment
    // needs no more literals, so visiting fresh cubes by literal count
    // settles each against every cube that could absorb it.
    std::stable_sort(fresh.begin(), fresh.end(),
                     [](const Term& a, const Term& b) {
                       return std::popcount(a.care) < std::popcount(b.care);
                     });
    if (next.size() > kNelsonCubeCap) return std::nullopt;
    for (const Term& q : fresh) {
      const bool absorbed =
          std::any_of(next.begin(), next.end(),
                      [&q](const Term& k) { return containsTerm(k, q); });
      if (absorbed) continue;
      next.push_back(q);
      if (next.size() > kNelsonCubeCap) return std::nullopt;
    }
    frontier.swap(next);
  }
  std::vector<Cube> primes;
  primes.reserve(frontier.size());
  for (const Term& p : frontier) {
    primes.push_back(Cube::fromMasks(f.numVars, p.care, p.value));
  }
  sortInQmOrder(primes);
  return primes;
}

Cover expandCubes(const CubeFunction& f) {
  const int vars = f.numVars;
  const std::vector<Term> offset = termsOf(f.offset, vars);
  std::vector<Term> uncovered = termsOf(f.onset, vars);
  std::vector<Term> scratch;
  // conflict[i]: the literals of the growing cube that contradict offset
  // cube i.  The cube stays off the offset, so none is empty; dropping
  // literal v makes the cube meet offset cube i exactly when conflict[i]
  // is {v} alone.
  std::vector<std::uint64_t> conflict(offset.size());
  Cover result(vars);
  while (!uncovered.empty()) {
    // The smallest uncovered onset minterm: each piece's smallest minterm
    // is its value.
    std::uint64_t seed = uncovered.front().value;
    for (const Term& p : uncovered) seed = std::min(seed, p.value);
    Term cube{varsMask(vars), seed};
    for (std::size_t i = 0; i < offset.size(); ++i) {
      conflict[i] = (seed ^ offset[i].value) & offset[i].care;
    }
    for (int v = 0; v < vars; ++v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      if (std::find(conflict.begin(), conflict.end(), bit) != conflict.end()) {
        continue;
      }
      cube.care &= ~bit;
      cube.value &= ~bit;
      for (std::uint64_t& c : conflict) c &= ~bit;
    }
    result.add(Cube::fromMasks(vars, cube.care, cube.value));
    sharp(uncovered, cube, scratch);
  }
  result.removeContained();
  TAUHLS_ASSERT(implements(result, f),
                "cube expand produced a non-implementing cover");
  return result;
}

bool implements(const Cover& cover, const CubeFunction& f) {
  TAUHLS_CHECK(cover.numVars() == f.numVars,
               "cover/spec variable count mismatch");
  const std::vector<Term> offset = termsOf(f.offset, f.numVars);
  std::vector<Term> uncovered = termsOf(f.onset, f.numVars);
  std::vector<Term> scratch;
  for (const Cube& c : cover.cubes()) {
    const Term t{c.careMask(), c.valueMask()};
    for (const Term& o : offset) {
      if (meets(t, o)) return false;
    }
    sharp(uncovered, t, scratch);
  }
  return uncovered.empty();
}

Cover minimize(const CubeFunction& f) {
  if (f.onset.empty()) return Cover(f.numVars);
  if (f.numVars <= kExactMaxVars) {
    const TruthTable tt = toTruthTable(f);
    if (takesExactPath(tt)) {
      std::optional<std::vector<Cube>> primes = primesFromOffset(f);
      if (!primes) primes = primeImplicants(tt);
      return coverFromPrimes(tt, *primes);
    }
  }
  return expandCubes(f);
}

}  // namespace tauhls::logic
