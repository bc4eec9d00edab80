#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "logic/cover.hpp"
#include "logic/cube.hpp"
#include "logic/minimize.hpp"
#include "logic/truth_table.hpp"

namespace tauhls::logic {
namespace {

TEST(Cube, FullCoversEverything) {
  Cube c = Cube::full(4);
  EXPECT_EQ(c.numLiterals(), 0);
  for (std::uint64_t m = 0; m < 16; ++m) EXPECT_TRUE(c.covers(m));
  EXPECT_EQ(c.size(), 16u);
}

TEST(Cube, MintermCoversExactlyOne) {
  Cube c = Cube::minterm(4, 0b1010);
  EXPECT_EQ(c.numLiterals(), 4);
  EXPECT_EQ(c.size(), 1u);
  for (std::uint64_t m = 0; m < 16; ++m) {
    EXPECT_EQ(c.covers(m), m == 0b1010);
  }
}

TEST(Cube, LiteralManipulation) {
  Cube c = Cube::full(3);
  c.setLiteral(0, true);
  c.setLiteral(2, false);
  EXPECT_TRUE(c.hasLiteral(0));
  EXPECT_FALSE(c.hasLiteral(1));
  EXPECT_TRUE(c.literalPositive(0));
  EXPECT_FALSE(c.literalPositive(2));
  EXPECT_EQ(c.toString(), "1-0");
  EXPECT_TRUE(c.covers(0b001));
  EXPECT_TRUE(c.covers(0b011));
  EXPECT_FALSE(c.covers(0b101));
  c.dropLiteral(2);
  EXPECT_TRUE(c.covers(0b101));
  EXPECT_THROW(c.literalPositive(2), Error);
}

TEST(Cube, Containment) {
  Cube big = Cube::full(3);
  big.setLiteral(0, true);  // x0
  Cube small = Cube::minterm(3, 0b101);
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(Cube, Intersection) {
  Cube a = Cube::full(3);
  a.setLiteral(0, true);
  Cube b = Cube::full(3);
  b.setLiteral(0, false);
  EXPECT_FALSE(a.intersects(b));
  Cube c = Cube::full(3);
  c.setLiteral(1, true);
  EXPECT_TRUE(a.intersects(c));
}

TEST(Cube, QmMerge) {
  Cube a = Cube::minterm(3, 0b000);
  Cube b = Cube::minterm(3, 0b001);
  auto m = a.merge(b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->toString(), "-00");
  EXPECT_TRUE(m->covers(0b000));
  EXPECT_TRUE(m->covers(0b001));
  EXPECT_FALSE(m->covers(0b010));
  // Distance-2 minterms don't merge.
  EXPECT_FALSE(Cube::minterm(3, 0b000).merge(Cube::minterm(3, 0b011)).has_value());
  // Different care sets don't merge.
  Cube wide = Cube::full(3);
  wide.setLiteral(0, true);
  EXPECT_FALSE(wide.merge(a).has_value());
}

TEST(Cube, MintermEnumeration) {
  Cube c = Cube::full(3);
  c.setLiteral(1, true);
  auto ms = c.minterms();
  EXPECT_EQ(ms.size(), 4u);
  for (std::uint64_t m : ms) EXPECT_TRUE(c.covers(m));
}

TEST(Cover, EvaluateAndLiterals) {
  Cover cov(3);
  Cube a = Cube::full(3);
  a.setLiteral(0, true);
  Cube b = Cube::full(3);
  b.setLiteral(1, false);
  b.setLiteral(2, true);
  cov.add(a);
  cov.add(b);
  EXPECT_EQ(cov.literalCount(), 3);
  EXPECT_TRUE(cov.evaluate(0b001));   // a
  EXPECT_TRUE(cov.evaluate(0b100));   // b
  EXPECT_FALSE(cov.evaluate(0b010));
}

TEST(Cover, RemoveContained) {
  Cover cov(3);
  Cube big = Cube::full(3);
  big.setLiteral(0, true);
  cov.add(big);
  cov.add(Cube::minterm(3, 0b001));
  cov.add(Cube::minterm(3, 0b111));
  cov.removeContained();
  EXPECT_EQ(cov.numCubes(), 1u);
  // Equal duplicates collapse to one.
  Cover dup(2);
  dup.add(Cube::minterm(2, 0b01));
  dup.add(Cube::minterm(2, 0b01));
  dup.removeContained();
  EXPECT_EQ(dup.numCubes(), 1u);
}

TEST(TruthTable, SetsAndSets) {
  TruthTable tt(3);
  tt.set(0, Ternary::One);
  tt.set(5, Ternary::One);
  tt.set(7, Ternary::DontCare);
  EXPECT_EQ(tt.onset(), (std::vector<std::uint64_t>{0, 5}));
  EXPECT_EQ(tt.dcset(), (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(tt.offset().size(), 5u);
  bool v;
  EXPECT_FALSE(tt.constantOverCareSet(v));
}

TEST(TruthTable, ConstantDetection) {
  TruthTable tt(2);
  bool v = true;
  EXPECT_TRUE(tt.constantOverCareSet(v));
  EXPECT_FALSE(v);
  tt.set(1, Ternary::DontCare);
  EXPECT_TRUE(tt.constantOverCareSet(v));
  tt.set(2, Ternary::One);
  tt.set(0, Ternary::DontCare);
  tt.set(3, Ternary::DontCare);
  EXPECT_TRUE(tt.constantOverCareSet(v));
  EXPECT_TRUE(v);
}

TEST(Minimize, XorHasFourPrimes) {
  // 2-var XOR: primes are the two minterms themselves... actually each
  // onset minterm is prime (no adjacent onset), so 2 primes of 2 literals.
  TruthTable tt(2);
  tt.set(1, Ternary::One);
  tt.set(2, Ternary::One);
  auto primes = primeImplicants(tt);
  EXPECT_EQ(primes.size(), 2u);
  Cover cov = minimizeExact(tt);
  EXPECT_EQ(cov.numCubes(), 2u);
  EXPECT_EQ(cov.literalCount(), 4);
}

TEST(Minimize, ClassicQmExample) {
  // f(a,b,c,d) = sum m(4,8,10,11,12,15) + dc(9,14)  -- classic textbook case.
  TruthTable tt(4);
  for (std::uint64_t m : {4, 8, 10, 11, 12, 15}) tt.set(m, Ternary::One);
  for (std::uint64_t m : {9, 14}) tt.set(m, Ternary::DontCare);
  Cover cov = minimizeExact(tt);
  EXPECT_TRUE(implements(cov, tt));
  // Known minimal solution has 3 product terms.
  EXPECT_EQ(cov.numCubes(), 3u);
}

TEST(Minimize, DontCaresEnableCollapse) {
  // Onset {0}, rest don't-care -> constant-1 single empty cube.
  TruthTable tt(3);
  tt.set(0, Ternary::One);
  for (std::uint64_t r = 1; r < 8; ++r) tt.set(r, Ternary::DontCare);
  Cover cov = minimizeExact(tt);
  EXPECT_EQ(cov.numCubes(), 1u);
  EXPECT_EQ(cov.literalCount(), 0);
}

TEST(Minimize, EmptyOnsetGivesEmptyCover) {
  TruthTable tt(3);
  EXPECT_TRUE(minimizeExact(tt).empty());
  EXPECT_TRUE(minimizeExpand(tt).empty());
}

class MinimizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimizeProperty, BothEnginesImplementRandomFunctions) {
  std::mt19937_64 rng(GetParam());
  const int nv = 2 + static_cast<int>(GetParam() % 7);  // 2..8 vars
  TruthTable tt(nv);
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    int roll = std::uniform_int_distribution<int>(0, 9)(rng);
    tt.set(r, roll < 4   ? Ternary::One
              : roll < 8 ? Ternary::Zero
                         : Ternary::DontCare);
  }
  Cover exact = minimizeExact(tt);
  Cover expand = minimizeExpand(tt);
  EXPECT_TRUE(implements(exact, tt));
  EXPECT_TRUE(implements(expand, tt));
  // The exact engine never loses to the heuristic by more than a little;
  // at minimum it must not produce more cubes than there are onset rows.
  EXPECT_LE(exact.numCubes(), tt.onset().size());
  EXPECT_LE(expand.numCubes(), tt.onset().size());
}

TEST_P(MinimizeProperty, PrimesCoverOnsetAndAvoidOffset) {
  std::mt19937_64 rng(GetParam() * 977);
  TruthTable tt(5);
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    tt.set(r, std::uniform_int_distribution<int>(0, 1)(rng) ? Ternary::One
                                                            : Ternary::Zero);
  }
  auto primes = primeImplicants(tt);
  for (const Cube& p : primes) {
    for (std::uint64_t off : tt.offset()) {
      EXPECT_FALSE(p.covers(off)) << "prime covers offset row";
    }
  }
  for (std::uint64_t on : tt.onset()) {
    bool covered = false;
    for (const Cube& p : primes) covered |= p.covers(on);
    EXPECT_TRUE(covered) << "onset row uncovered by primes";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

/// A random table mixing onset/offset/don't-care rows; variable count and
/// density vary with the seed so both sparse and dense shapes appear.
TruthTable randomTable(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 7919);
  const int nv = 3 + static_cast<int>(seed % 8);  // 3..10 vars
  const int dcWeight = static_cast<int>(seed % 5);
  TruthTable tt(nv);
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    const int roll = std::uniform_int_distribution<int>(0, 9)(rng);
    tt.set(r, roll < 3              ? Ternary::One
              : roll < 6 + dcWeight ? Ternary::DontCare
                                    : Ternary::Zero);
  }
  return tt;
}

class MinimizerImplIdentity : public ::testing::TestWithParam<std::uint64_t> {
};

// The fast QM must emit the reference's primes in the reference's order --
// not just the same set -- because prime order feeds the greedy cover
// selection and therefore the final covers.
TEST_P(MinimizerImplIdentity, FastPrimesMatchReferenceOrderExactly) {
  const TruthTable tt = randomTable(GetParam());
  const auto fast = primeImplicants(tt);
  const auto ref = primeImplicantsReference(tt);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i], ref[i]) << "prime " << i << " diverges";
  }
}

TEST_P(MinimizerImplIdentity, FastExpandMatchesReferenceCover) {
  const TruthTable tt = randomTable(GetParam());
  const Cover fast = minimizeExpand(tt);
  const Cover ref = minimizeExpandReference(tt);
  ASSERT_EQ(fast.numCubes(), ref.numCubes());
  for (std::size_t i = 0; i < fast.numCubes(); ++i) {
    EXPECT_EQ(fast.cubes()[i], ref.cubes()[i]);
  }
}

// minimize() under both MinimizerImpl settings -- this also exercises the
// Fast-mode memo (second call replays the cached cover) against the
// uncached Reference result.
TEST_P(MinimizerImplIdentity, DispatchIsImplIndependent) {
  const TruthTable tt = randomTable(GetParam());
  setMinimizerImpl(MinimizerImpl::Reference);
  const Cover ref = minimize(tt);
  setMinimizerImpl(MinimizerImpl::Fast);
  const Cover cold = minimize(tt);
  const Cover warm = minimize(tt);  // a second call: determinism only
  EXPECT_EQ(minimizerImpl(), MinimizerImpl::Fast);
  ASSERT_EQ(cold.numCubes(), ref.numCubes());
  for (std::size_t i = 0; i < cold.numCubes(); ++i) {
    EXPECT_EQ(cold.cubes()[i], ref.cubes()[i]);
  }
  ASSERT_EQ(warm.numCubes(), cold.numCubes());
  for (std::size_t i = 0; i < warm.numCubes(); ++i) {
    EXPECT_EQ(warm.cubes()[i], cold.cubes()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizerImplIdentity,
                         ::testing::Range<std::uint64_t>(1, 21));

/// A "planted support" table over n variables: a random ternary function of
/// k randomly placed variables, so the other n - k are unread.  Each row of
/// the planted function is nonzero with a probability that keeps the
/// table's onset + dc near 2048 rows at most, which bounds the reference
/// QM's all-pairs merge scans at 14 variables.
TruthTable plantedTable(int n, int k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> vars(static_cast<std::size_t>(n));
  std::iota(vars.begin(), vars.end(), 0);
  std::shuffle(vars.begin(), vars.end(), rng);
  vars.resize(static_cast<std::size_t>(k));
  const double nonzero = std::min(0.6, 2048.0 / std::ldexp(1.0, n));
  std::vector<Ternary> g(std::size_t{1} << k);
  for (Ternary& t : g) {
    const double roll = std::uniform_real_distribution<double>(0, 1)(rng);
    t = roll >= nonzero           ? Ternary::Zero
        : roll < nonzero * 0.6    ? Ternary::One
                                  : Ternary::DontCare;
  }
  TruthTable tt(n);
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    std::size_t sub = 0;
    for (int i = 0; i < k; ++i) {
      sub |= static_cast<std::size_t>((r >> vars[static_cast<std::size_t>(i)]) & 1) << i;
    }
    tt.set(r, g[sub]);
  }
  return tt;
}

void expectSameCubes(const Cover& fast, const Cover& ref) {
  ASSERT_EQ(fast.numCubes(), ref.numCubes());
  for (std::size_t i = 0; i < fast.numCubes(); ++i) {
    EXPECT_EQ(fast.cubes()[i], ref.cubes()[i]) << "cube " << i << " diverges";
  }
}

/// Fast vs Reference on one table: primes element by element and in order,
/// then the dispatched covers (exact QM for every table here with at most
/// 4096 onset + dc rows).
void expectFastMatchesReference(const TruthTable& tt) {
  const auto fast = primeImplicants(tt);
  const auto ref = primeImplicantsReference(tt);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i], ref[i]) << "prime " << i << " diverges";
  }
  setMinimizerImpl(MinimizerImpl::Reference);
  const Cover refCover = minimize(tt);
  setMinimizerImpl(MinimizerImpl::Fast);
  expectSameCubes(minimize(tt), refCover);
}

class PlantedSupport : public ::testing::TestWithParam<int> {};

// randomTable almost never leaves a variable unread, so these tables are
// the ones that take the Fast QM's support projection -- every support
// size k from the constant function (k = 0) to full support (k = n).
TEST_P(PlantedSupport, FastMatchesReferenceForEverySupportSize) {
  const int n = GetParam();
  for (int k = 0; k <= n; ++k) {
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
    expectFastMatchesReference(
        plantedTable(n, k, static_cast<std::uint64_t>(n * 31 + k)));
  }
}

// Constant, all-don't-care and empty-onset tables read no variable.  The
// reference's all-pairs scans explode on a full onset, so it is the oracle
// only up to 8 variables; beyond that the expected primes are written out.
TEST_P(PlantedSupport, UnreadTablesGiveTheFullCubeOrNothing) {
  const int n = GetParam();
  for (const Ternary fill : {Ternary::One, Ternary::DontCare, Ternary::Zero}) {
    SCOPED_TRACE("n=" + std::to_string(n) +
                 " fill=" + std::to_string(static_cast<int>(fill)));
    TruthTable tt(n);
    for (std::uint64_t r = 0; r < tt.numRows(); ++r) tt.set(r, fill);
    const auto primes = primeImplicants(tt);
    if (fill == Ternary::Zero) {
      EXPECT_TRUE(primes.empty());
    } else {
      ASSERT_EQ(primes.size(), 1u);
      EXPECT_EQ(primes[0], Cube::full(n));
    }
    if (n <= 8) expectFastMatchesReference(tt);
  }
}

INSTANTIATE_TEST_SUITE_P(Vars, PlantedSupport, ::testing::Range(2, 15));

// Above 14 variables minimize() takes the expand path, which projects
// nothing: a wide planted-support table gives the reference expand's cover
// under either implementation.
TEST(PlantedSupport, WideTableTakesTheUnchangedExpandPath) {
  const TruthTable tt = plantedTable(16, 8, 1616);
  const Cover ref = minimizeExpandReference(tt);
  setMinimizerImpl(MinimizerImpl::Reference);
  expectSameCubes(minimize(tt), ref);
  setMinimizerImpl(MinimizerImpl::Fast);
  expectSameCubes(minimize(tt), ref);
  expectSameCubes(minimizeExpand(tt), ref);
}

}  // namespace
}  // namespace tauhls::logic
