#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace tauhls::sim {

namespace {

// Per-worker scratch, handed out through a small freelist so buffers are
// reused across chunks (and across masks / Monte-Carlo samples within a
// chunk) instead of being reallocated: the sweep and sampling hot loops
// never allocate after warm-up.
struct SweepScratch {
  explicit SweepScratch(const MakespanEngine& engine) : sweep(engine) {}
  MakespanEngine::DistributedSweep sweep;
  std::vector<int> cycles;
  std::vector<std::uint64_t> counts;
};

class ScratchPool {
 public:
  explicit ScratchPool(const MakespanEngine& engine) : engine_(engine) {}

  std::unique_ptr<SweepScratch> acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<SweepScratch> scratch = std::move(free_.back());
        free_.pop_back();
        return scratch;
      }
    }
    return std::make_unique<SweepScratch>(engine_);
  }

  void release(std::unique_ptr<SweepScratch> scratch) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(scratch));
  }

 private:
  const MakespanEngine& engine_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<SweepScratch>> free_;
};

void requireExactCap(int n) {
  TAUHLS_CHECK(n <= kMaxExactTauOps,
               "exact makespan law limited to " +
                   std::to_string(kMaxExactTauOps) + " TAU ops, got " +
                   std::to_string(n) + "; use averageCyclesMonteCarlo");
}

/// Counts over all 2^n masks of `cyclesOf(chunk scratch, base, count)`
/// into a (cycles - lo, SD count) table, one chunk of the fixed grid per
/// task.  Integer counts merge exactly in any order, so the result does not
/// depend on the thread count.
template <typename CyclesOf>
MakespanHistogram countMasks(const MakespanEngine& engine, int lo, int hi,
                             CyclesOf&& cyclesOf) {
  const int n = engine.numTauOps();
  const std::size_t stride = static_cast<std::size_t>(n) + 1;
  const std::size_t tableSize =
      (static_cast<std::size_t>(hi - lo) + 1) * stride;
  const std::uint64_t total = std::uint64_t{1} << n;
  const std::uint64_t numChunks = common::chunkCountFor(total);
  const std::uint64_t chunkSize = total / numChunks;  // both powers of 2
  std::vector<std::uint64_t> table(tableSize, 0);
  std::mutex tableMutex;
  ScratchPool pool(engine);
  common::parallelFor(static_cast<std::size_t>(numChunks), [&](std::size_t chunk) {
    std::unique_ptr<SweepScratch> scratch = pool.acquire();
    scratch->cycles.resize(chunkSize);
    scratch->counts.assign(tableSize, 0);
    const std::uint64_t base = chunk * chunkSize;
    cyclesOf(*scratch, base, chunkSize);
    for (std::uint64_t off = 0; off < chunkSize; ++off) {
      const int c = scratch->cycles[off];
      TAUHLS_ASSERT(c >= lo && c <= hi, "makespan outside [best, worst]");
      ++scratch->counts[static_cast<std::size_t>(c - lo) * stride +
                        static_cast<std::size_t>(std::popcount(base + off))];
    }
    {
      std::lock_guard<std::mutex> lock(tableMutex);
      for (std::size_t k = 0; k < tableSize; ++k) table[k] += scratch->counts[k];
    }
    pool.release(std::move(scratch));
  });
  MakespanHistogram h;
  h.tauCount = n;
  for (std::size_t k = 0; k < tableSize; ++k) {
    if (table[k] != 0) {
      h.buckets[{lo + static_cast<int>(k / stride), static_cast<int>(k % stride)}] =
          table[k];
    }
  }
  return h;
}

}  // namespace

MakespanHistogram distributedHistogramGray(const MakespanEngine& engine) {
  requireExactCap(engine.numTauOps());
  return countMasks(engine, engine.bestDistributedCycles(),
                    engine.worstDistributedCycles(),
                    [](SweepScratch& scratch, std::uint64_t base,
                       std::uint64_t count) {
                      scratch.sweep.evalChunk(base, count, scratch.cycles.data());
                    });
}

MakespanHistogram distributedHistogram(const MakespanEngine& engine) {
  requireExactCap(engine.numTauOps());
  std::optional<MakespanHistogram> h = engine.frontierHistogram();
  return h ? std::move(*h) : distributedHistogramGray(engine);
}

MakespanHistogram makespanHistogram(const sched::ScheduledDfg& s,
                                    ControlStyle style) {
  const MakespanEngine engine(s);
  if (style == ControlStyle::Distributed) return distributedHistogram(engine);
  requireExactCap(engine.numTauOps());
  return countMasks(engine, engine.bestSyncCycles(), engine.worstSyncCycles(),
                    [&engine](SweepScratch& scratch, std::uint64_t base,
                              std::uint64_t count) {
                      for (std::uint64_t off = 0; off < count; ++off) {
                        scratch.cycles[off] = engine.syncCycles(base + off);
                      }
                    });
}

MakespanHistogram makespanHistogramReference(const sched::ScheduledDfg& s,
                                             const MakespanEngine& engine,
                                             ControlStyle style) {
  const std::vector<dfg::NodeId> taus = tauOps(s);
  requireExactCap(static_cast<int>(taus.size()));
  const bool dist = style == ControlStyle::Distributed;
  return countMasks(
      engine, dist ? engine.bestDistributedCycles() : engine.bestSyncCycles(),
      dist ? engine.worstDistributedCycles() : engine.worstSyncCycles(),
      [&](SweepScratch& scratch, std::uint64_t base, std::uint64_t count) {
        for (std::uint64_t off = 0; off < count; ++off) {
          OperandClasses classes = allShort(s);
          for (std::size_t i = 0; i < taus.size(); ++i) {
            classes.shortClass[taus[i]] = ((base + off) >> i) & 1;
          }
          scratch.cycles[off] = dist ? engine.distributedCycles(classes)
                                     : engine.syncCycles(classes);
        }
      });
}

double histogramAverageCycles(const MakespanHistogram& h, double p) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  // Walked in the map's sorted bucket order: equal histograms accumulate in
  // the same order, so the result is bit-identical however they were built.
  double sum = 0.0;
  for (const auto& [key, count] : h.buckets) {
    const auto& [cycles, sdCount] = key;
    sum += static_cast<double>(count) * static_cast<double>(cycles) *
           std::pow(p, sdCount) * std::pow(1.0 - p, h.tauCount - sdCount);
  }
  return sum;
}

int histogramBestCycles(const MakespanHistogram& h) {
  TAUHLS_CHECK(!h.buckets.empty(), "empty makespan histogram");
  return h.buckets.begin()->first.first;
}

int histogramWorstCycles(const MakespanHistogram& h) {
  TAUHLS_CHECK(!h.buckets.empty(), "empty makespan histogram");
  return h.buckets.rbegin()->first.first;
}

int bestCaseCycles(const MakespanEngine& engine, ControlStyle style) {
  return style == ControlStyle::Distributed ? engine.bestDistributedCycles()
                                            : engine.bestSyncCycles();
}

int worstCaseCycles(const MakespanEngine& engine, ControlStyle style) {
  return style == ControlStyle::Distributed ? engine.worstDistributedCycles()
                                            : engine.worstSyncCycles();
}

int bestCaseCycles(const sched::ScheduledDfg& s, ControlStyle style) {
  return bestCaseCycles(MakespanEngine(s), style);
}

int worstCaseCycles(const sched::ScheduledDfg& s, ControlStyle style) {
  return worstCaseCycles(MakespanEngine(s), style);
}

double averageCyclesExact(const sched::ScheduledDfg& s, ControlStyle style,
                          double p) {
  return averageCyclesExact(s, MakespanEngine(s), style, p);
}

double averageCyclesExact(const sched::ScheduledDfg& s,
                          const MakespanEngine& engine, ControlStyle style,
                          double p) {
  (void)s;
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  if (style == ControlStyle::CentSync) return engine.syncExpectedCycles(p);
  return histogramAverageCycles(distributedHistogram(engine), p);
}

std::vector<double> averageCyclesExactSweep(const sched::ScheduledDfg& s,
                                            const MakespanEngine& engine,
                                            ControlStyle style,
                                            const std::vector<double>& ps) {
  std::vector<double> out(ps.size());
  if (style == ControlStyle::CentSync) {
    for (std::size_t i = 0; i < ps.size(); ++i) {
      out[i] = averageCyclesExact(s, engine, style, ps[i]);
    }
    return out;
  }
  // The law does not depend on P: build it once, weight it per P.
  const MakespanHistogram h = distributedHistogram(engine);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out[i] = histogramAverageCycles(h, ps[i]);
  }
  return out;
}

double averageCyclesExactReference(const sched::ScheduledDfg& s,
                                   const MakespanEngine& engine,
                                   ControlStyle style, double p) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  return histogramAverageCycles(makespanHistogramReference(s, engine, style),
                                p);
}

namespace {

/// Exact integer first and second moments of the makespan.
struct Moments {
  std::uint64_t sum = 0;
  std::uint64_t sumSq = 0;
};

/// Moments over the counter-seeded samples [begin, end): sample i always
/// draws from seed + i.  The sums are integers, so neither the chunk grid
/// nor the thread count nor the split into ranges changes them.
Moments mcMoments(const sched::ScheduledDfg& s, const MakespanEngine& engine,
                  ControlStyle style, double p, std::uint64_t begin,
                  std::uint64_t end, std::uint64_t seed) {
  const int n = engine.numTauOps();
  const bool maskable = engine.supportsMasks();
  const std::vector<dfg::NodeId> taus = maskable ? std::vector<dfg::NodeId>{}
                                                 : tauOps(s);
  const std::uint64_t total = end - begin;
  const std::uint64_t numChunks = common::chunkCountFor(total);
  const std::uint64_t chunkSize = (total + numChunks - 1) / numChunks;
  ScratchPool pool(engine);
  return common::parallelReduce<Moments>(
      static_cast<std::size_t>(numChunks), Moments{},
      [&](std::size_t chunk) {
        const std::uint64_t lo = begin + chunk * chunkSize;
        const std::uint64_t hi = std::min(lo + chunkSize, end);
        Moments partial;
        auto add = [&partial](int cycles) {
          partial.sum += static_cast<std::uint64_t>(cycles);
          partial.sumSq += static_cast<std::uint64_t>(cycles) *
                           static_cast<std::uint64_t>(cycles);
        };
        if (maskable) {
          // Mask-native sampling: no OperandClasses vector, one reused sweep.
          std::unique_ptr<SweepScratch> scratch =
              style == ControlStyle::Distributed ? pool.acquire() : nullptr;
          for (std::uint64_t i = lo; i < hi; ++i) {
            const std::uint64_t mask = randomClassMask(n, p, seed + i);
            add(style == ControlStyle::Distributed
                    ? scratch->sweep.evalFull(mask)
                    : engine.syncCycles(mask));
          }
          if (scratch) pool.release(std::move(scratch));
        } else {
          OperandClasses classes;
          for (std::uint64_t i = lo; i < hi; ++i) {
            randomClasses(s, taus, p, seed + i, classes);
            add(style == ControlStyle::Distributed
                    ? engine.distributedCycles(classes)
                    : engine.syncCycles(classes));
          }
        }
        return partial;
      },
      [](Moments acc, Moments partial) {
        return Moments{acc.sum + partial.sum, acc.sumSq + partial.sumSq};
      });
}

}  // namespace

double averageCyclesMonteCarlo(const sched::ScheduledDfg& s, ControlStyle style,
                               double p, int samples, std::uint64_t seed) {
  return averageCyclesMonteCarlo(s, MakespanEngine(s), style, p, samples, seed);
}

double averageCyclesMonteCarlo(const sched::ScheduledDfg& s,
                               const MakespanEngine& engine, ControlStyle style,
                               double p, int samples, std::uint64_t seed) {
  TAUHLS_CHECK(samples > 0, "need at least one sample");
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  const Moments m = mcMoments(s, engine, style, p, 0,
                              static_cast<std::uint64_t>(samples), seed);
  return static_cast<double>(m.sum) / samples;
}

McEstimate averageCyclesMonteCarloAdaptive(const sched::ScheduledDfg& s,
                                           const MakespanEngine& engine,
                                           ControlStyle style, double p,
                                           const LatencyOptions& options) {
  TAUHLS_CHECK(options.mcSamples > 0, "need at least one sample");
  TAUHLS_CHECK(options.mcMaxSamples >= options.mcSamples,
               "mcMaxSamples below the initial batch");
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  const std::uint64_t ceiling =
      static_cast<std::uint64_t>(options.mcMaxSamples);
  std::uint64_t n = static_cast<std::uint64_t>(options.mcSamples);
  std::uint64_t drawn = 0;
  Moments m;
  McEstimate est;
  for (;;) {
    // Draw only the round's new samples [drawn, n) and add them in.
    const Moments round =
        mcMoments(s, engine, style, p, drawn, n, options.mcSeed);
    m.sum += round.sum;
    m.sumSq += round.sumSq;
    drawn = n;
    const double sum = static_cast<double>(m.sum);
    est.mean = sum / static_cast<double>(n);
    est.samples = n;
    const double variance =
        n > 1 ? std::max(0.0, (static_cast<double>(m.sumSq) - sum * est.mean) /
                                  static_cast<double>(n - 1))
              : 0.0;
    est.halfWidth = 1.96 * std::sqrt(variance / static_cast<double>(n));
    if (est.halfWidth <= options.mcTargetHalfWidth || n >= ceiling) break;
    n = std::min(n * 2, ceiling);
  }
  return est;
}

LatencyComparison compareLatencies(const sched::ScheduledDfg& s,
                                   const std::vector<double>& ps,
                                   const LatencyOptions& options,
                                   std::vector<McEstimate>* mcInfo) {
  const MakespanEngine engine(s);
  const bool exactDist = engine.numTauOps() <= options.exactCap &&
                         engine.numTauOps() <= kMaxExactTauOps;
  LatencyComparison out;
  out.ps = ps;
  out.tau.bestNs = engine.bestSyncCycles() * s.clockNs;
  out.tau.worstNs = engine.worstSyncCycles() * s.clockNs;
  out.dist.bestNs = engine.bestDistributedCycles() * s.clockNs;
  out.dist.worstNs = engine.worstDistributedCycles() * s.clockNs;
  out.tau.averageNs.resize(ps.size());
  out.dist.averageNs.resize(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out.tau.averageNs[i] = engine.syncExpectedCycles(ps[i]) * s.clockNs;
  }
  if (mcInfo != nullptr) mcInfo->assign(ps.size(), McEstimate{});
  if (exactDist) {
    const std::vector<double> cycles =
        averageCyclesExactSweep(s, engine, ControlStyle::Distributed, ps);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      out.dist.averageNs[i] = cycles[i] * s.clockNs;
    }
  } else {
    // Each P runs its own doubling loop; the loops already parallelize
    // internally over the sample range, so the fan-out here stays serial
    // per P to keep the scratch footprint bounded.
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const McEstimate est = averageCyclesMonteCarloAdaptive(
          s, engine, ControlStyle::Distributed, ps[i], options);
      out.dist.averageNs[i] = est.mean * s.clockNs;
      if (mcInfo != nullptr) (*mcInfo)[i] = est;
    }
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double tau = out.tau.averageNs[i];
    const double dist = out.dist.averageNs[i];
    out.enhancementPercent.push_back(tau > 0.0 ? (tau - dist) / tau * 100.0
                                               : 0.0);
  }
  return out;
}

}  // namespace tauhls::sim
