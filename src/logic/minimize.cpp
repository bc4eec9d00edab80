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
  const std::uint64_t all = (std::uint64_t{1} << vars) - 1;
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

  // Restore the order QM emits on the full table.  It emits level by level
  // (popcount of the free mask F), and within a level in order of first
  // generation.  A cube's first merge drops its lowest free variable b: it
  // comes from the bucket (care | b, popcount(value)), whose lower cube has
  // the cube's own value and whose partner is value | b.  Buckets run in
  // (care, popcount) order, lower cubes in ascending value, partners in
  // ascending variable.  Every lifted prime has F != 0, so b exists.
  const auto key = [all](const Cube& c) {
    const std::uint64_t free = all & ~c.careMask();
    const std::uint64_t b = std::uint64_t{1} << std::countr_zero(free);
    return std::tuple(std::popcount(free), c.careMask() | b,
                      std::popcount(c.valueMask()), c.valueMask(), b);
  };
  std::sort(primes.begin(), primes.end(),
            [&key](const Cube& a, const Cube& b) { return key(a) < key(b); });
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
  return result;
}

}  // namespace

Cover minimizeExact(const TruthTable& tt) {
  Cover cover = coverFromPrimes(tt, gMinimizerImpl == MinimizerImpl::Reference
                                        ? primeImplicantsReference(tt)
                                        : primeImplicants(tt));
  TAUHLS_ASSERT(implements(cover, tt), "QM produced a non-implementing cover");
  return cover;
}

namespace {

// --- bit-parallel expand -----------------------------------------------------
//
// Row sets are bitsets over the 2^numVars truth-table rows, 64 rows per word.
// Flipping variable v in every row index is a word-level butterfly (bit
// strides below 64) or a word swap at distance 2^(v-6), so "the rows of this
// cube with literal v dropped" and "does that set touch the offset" are both
// O(rows/64) word operations instead of per-row Cube::covers calls.

/// kStrideMask[v]: bits whose row index has bit v clear, for v < 6.
constexpr std::uint64_t kStrideMask[6] = {
    0x5555555555555555ull, 0x3333333333333333ull, 0x0F0F0F0F0F0F0F0Full,
    0x00FF00FF00FF00FFull, 0x0000FFFF0000FFFFull, 0x00000000FFFFFFFFull};

/// dst = src with row-index bit v flipped in every element.
void flipVar(const std::vector<std::uint64_t>& src, int v,
             std::vector<std::uint64_t>& dst) {
  const std::size_t n = src.size();
  if (v < 6) {
    const int s = 1 << v;
    const std::uint64_t m = kStrideMask[v];
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = ((src[i] & m) << s) | ((src[i] >> s) & m);
    }
  } else {
    const std::size_t d = std::size_t{1} << (v - 6);
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i ^ d];
  }
}

bool anyIntersect(const std::vector<std::uint64_t>& a,
                  const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

}  // namespace

Cover minimizeExpand(const TruthTable& tt) {
  const int vars = tt.numVars();
  const std::uint64_t rows = tt.numRows();
  const std::size_t words = static_cast<std::size_t>((rows + 63) / 64);

  std::vector<std::uint64_t> offsetMask(words, 0);
  for (std::uint64_t r = 0; r < rows; ++r) {
    if (tt.get(r) == Ternary::Zero) {
      offsetMask[r >> 6] |= std::uint64_t{1} << (r & 63);
    }
  }

  // flippedOffset[v]: rows whose v-flipped partner is in the offset.  A cube
  // currently off the offset gains an offset row by dropping literal v
  // exactly when its minterm set intersects this -- the same boolean the
  // reference implementation computes by scanning the offset per trial, so
  // the expansion decisions (and the resulting cover) are identical.
  std::vector<std::vector<std::uint64_t>> flippedOffset(
      static_cast<std::size_t>(vars), std::vector<std::uint64_t>(words));
  for (int v = 0; v < vars; ++v) flipVar(offsetMask, v, flippedOffset[v]);

  Cover result(vars);
  std::vector<std::uint64_t> covered(words, 0);
  std::vector<std::uint64_t> cur(words);
  std::vector<std::uint64_t> flipped(words);
  // Onset rows in ascending order, as the reference visits them.  The table
  // is read again rather than copied into a row list, which for a wide
  // function would hold millions of rows on top of the table itself.
  for (std::uint64_t row = 0; row < rows; ++row) {
    if (tt.get(row) != Ternary::One) continue;
    if ((covered[row >> 6] >> (row & 63)) & 1) continue;
    Cube cube = Cube::minterm(vars, row);
    std::fill(cur.begin(), cur.end(), 0);
    cur[row >> 6] = std::uint64_t{1} << (row & 63);
    // Expand: drop literals one by one while staying off the offset.
    for (int v = 0; v < vars; ++v) {
      if (anyIntersect(cur, flippedOffset[v])) continue;
      cube.dropLiteral(v);
      flipVar(cur, v, flipped);
      for (std::size_t i = 0; i < words; ++i) cur[i] |= flipped[i];
    }
    result.add(cube);
    for (std::size_t i = 0; i < words; ++i) covered[i] |= cur[i];
  }
  result.removeContained();
  TAUHLS_ASSERT(implements(result, tt),
                "expand produced a non-implementing cover");
  return result;
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

Cover minimize(const TruthTable& tt) {
  const auto expand = [&tt] {
    return gMinimizerImpl == MinimizerImpl::Reference
               ? minimizeExpandReference(tt)
               : minimizeExpand(tt);
  };
  if (tt.numVars() > 14) return expand();
  // QM's cost is driven by the onset+dc minterm count; when don't-cares
  // dominate (e.g. sparse one-hot encodings) the heuristic is far cheaper
  // and loses almost nothing.
  std::uint64_t careOnPlusDc = 0;
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    careOnPlusDc += tt.get(r) != Ternary::Zero;
  }
  return careOnPlusDc <= 4096 ? minimizeExact(tt) : expand();
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

}  // namespace tauhls::logic
