#include "sim/classes.hpp"

#include <cmath>
#include <random>

#include "common/error.hpp"

namespace tauhls::sim {

namespace {

// std::mt19937_64 parameters (the C++ standard's values).
constexpr int kStateWords = 312;   // n
constexpr int kShiftWords = 156;   // m
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

/// Draws the fast path serves: output k < n - m of the first twist reads
/// only the seeded words k, k + 1 and k + m.
constexpr int kMaxPartialDraws = kStateWords - kShiftWords;

/// The first `count` (<= kMaxPartialDraws) outputs of std::mt19937_64(seed),
/// bit for bit.  The engine would seed all 312 state words and twist them
/// before its first output; output k needs only words k, k + 1 and k + 156
/// of the seeded state, so the seed recurrence stops at word 155 + count
/// and only `count` words are twisted and tempered.
void firstEngineOutputs(std::uint64_t seed, int count, std::uint64_t* out) {
  if (count == 0) return;
  std::uint64_t x[kStateWords];
  x[0] = seed;
  const int last = kShiftWords + count - 1;
  for (int i = 1; i <= last; ++i) {
    x[i] = kInitMultiplier * (x[i - 1] ^ (x[i - 1] >> 62)) +
           static_cast<std::uint64_t>(i);
  }
  for (int k = 0; k < count; ++k) {
    const std::uint64_t y = (x[k] & kUpperMask) | (x[k + 1] & kLowerMask);
    std::uint64_t z = x[k + kShiftWords] ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    out[k] = z;
  }
}

/// std::bernoulli_distribution(p) applied to one 64-bit engine output, as
/// libstdc++ evaluates it: generate_canonical<double, 53> is
/// double(x) / 2^64, clamped to the largest double below 1, and the draw is
/// true iff that value is below p.
bool bernoulliOf(std::uint64_t x, double p) {
  double u = static_cast<double>(x) * 0x1p-64;
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return u < p;
}

/// Calls sink(i, isShort) for the n Bernoulli(p) draws of
/// std::mt19937_64(seed) fed to std::bernoulli_distribution, in order.
template <typename Sink>
void drawClasses(int n, double p, std::uint64_t seed, Sink&& sink) {
  if (n <= kMaxPartialDraws) {
    std::uint64_t words[kMaxPartialDraws];
    firstEngineOutputs(seed, n, words);
    for (int i = 0; i < n; ++i) sink(i, bernoulliOf(words[i], p));
    return;
  }
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution sd(p);
  for (int i = 0; i < n; ++i) sink(i, sd(rng));
}

}  // namespace

OperandClasses allShort(const sched::ScheduledDfg& s) {
  OperandClasses c;
  c.shortClass.assign(s.graph.numNodes(), true);
  return c;
}

OperandClasses allLong(const sched::ScheduledDfg& s) {
  OperandClasses c;
  c.shortClass.assign(s.graph.numNodes(), false);
  return c;
}

std::vector<dfg::NodeId> tauOps(const sched::ScheduledDfg& s) {
  std::vector<dfg::NodeId> out;
  for (dfg::NodeId v : s.graph.opIds()) {
    const int u = s.binding.unitOf(v);
    TAUHLS_ASSERT(u >= 0, "unbound op in scheduled DFG");
    if (s.unitIsTelescopic(u)) out.push_back(v);
  }
  return out;
}

OperandClasses fromMask(const sched::ScheduledDfg& s, std::uint64_t mask) {
  const std::vector<dfg::NodeId> taus = tauOps(s);
  TAUHLS_CHECK(taus.size() <= 64, "mask enumeration limited to 64 TAU ops");
  OperandClasses c = allShort(s);
  for (std::size_t i = 0; i < taus.size(); ++i) {
    c.shortClass[taus[i]] = (mask >> i) & 1;
  }
  return c;
}

OperandClasses randomClasses(const sched::ScheduledDfg& s, double p,
                             std::uint64_t seed) {
  OperandClasses c;
  randomClasses(s, tauOps(s), p, seed, c);
  return c;
}

void randomClasses(const sched::ScheduledDfg& s,
                   const std::vector<dfg::NodeId>& taus, double p,
                   std::uint64_t seed, OperandClasses& out) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  // Reset to all-SD in place; assign() only reallocates on a size change.
  out.shortClass.assign(s.graph.numNodes(), true);
  drawClasses(static_cast<int>(taus.size()), p, seed,
              [&](int i, bool isShort) {
                out.shortClass[taus[static_cast<std::size_t>(i)]] = isShort;
              });
}

std::uint64_t randomClassMask(int n, double p, std::uint64_t seed) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  TAUHLS_CHECK(n >= 0 && n <= 64, "mask sampling limited to 64 TAU ops");
  std::uint64_t mask = 0;
  drawClasses(n, p, seed, [&mask](int i, bool isShort) {
    mask |= std::uint64_t{isShort} << i;
  });
  return mask;
}

}  // namespace tauhls::sim
