#include "core/pipeline.hpp"

#include <iomanip>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "core/fingerprint.hpp"
#include "core/serialize.hpp"
#include "core/store.hpp"
#include "rtl/verilog.hpp"
#include "verify/equiv_check.hpp"
#include "verify/symbolic_check.hpp"
#include "verify/timing_check.hpp"
#include "verify/verify.hpp"
#include "verify/xprop_check.hpp"

namespace tauhls::core {

namespace {

constexpr std::size_t idx(Artifact a) { return static_cast<std::size_t>(a); }

/// What a pass body sees: the flow inputs plus typed slot access.  Slots of
/// concurrently-running passes are disjoint, so waves need no locking.
struct PassIo {
  const dfg::Dfg& graph;
  const FlowConfig& config;
  std::array<std::any, kNumArtifacts>& slots;

  template <typename T>
  const T& in(Artifact a) const {
    return *std::any_cast<const std::shared_ptr<const T>&>(slots[idx(a)]);
  }
  template <typename T>
  void out(Artifact a, T value) const {
    slots[idx(a)] = std::make_shared<const T>(std::move(value));
  }
};

/// One registered flow stage: consumed/produced artifacts, the config fields
/// it reads (as a hash contribution -- the *only* part of the config that can
/// invalidate its cache key), and the body.
struct PassDef {
  const char* name;
  std::vector<Artifact> inputs;
  std::vector<Artifact> outputs;
  void (*configKey)(const FlowConfig&, common::Hasher&);
  void (*run)(const PassIo&);
};

void noConfig(const FlowConfig&, common::Hasher&) {}

/// The flow's pass registry, in topological order.  Adding a stage means
/// adding one entry here (and an Artifact id); the executor, the cache and
/// the tracing need no changes.
const std::vector<PassDef>& passRegistry() {
  static const std::vector<PassDef> passes = {
      {"schedule",
       {},
       {Artifact::Schedule},
       [](const FlowConfig& c, common::Hasher& h) {
         hashAllocation(h, c.allocation);
         hashLibrary(h, c.library);
         h.u64(static_cast<std::uint64_t>(c.strategy));
       },
       [](const PassIo& io) {
         io.out(Artifact::Schedule,
                sched::scheduleAndBind(io.graph, io.config.allocation,
                                       io.config.library, io.config.strategy));
       }},
      {"distributed",
       {Artifact::Schedule},
       {Artifact::RawDistributed},
       noConfig,
       [](const PassIo& io) {
         io.out(Artifact::RawDistributed,
                fsm::buildDistributed(
                    io.in<sched::ScheduledDfg>(Artifact::Schedule)));
       }},
      {"signal-opt",
       {Artifact::RawDistributed},
       {Artifact::Distributed, Artifact::SignalStats},
       [](const FlowConfig& c, common::Hasher& h) {
         h.boolean(c.optimizeSignals);
       },
       [](const PassIo& io) {
         const auto& raw =
             io.in<fsm::DistributedControlUnit>(Artifact::RawDistributed);
         fsm::SignalOptStats stats;
         if (io.config.optimizeSignals) {
           io.out(Artifact::Distributed, fsm::optimizeSignals(raw, &stats));
         } else {
           io.out(Artifact::Distributed, raw);
         }
         io.out(Artifact::SignalStats, stats);
       }},
      {"cent-sync",
       {Artifact::Schedule},
       {Artifact::CentSync},
       noConfig,
       [](const PassIo& io) {
         io.out(Artifact::CentSync,
                fsm::buildCentSync(
                    io.in<sched::ScheduledDfg>(Artifact::Schedule)));
       }},
      {"latency",
       {Artifact::Schedule},
       {Artifact::Latency},
       [](const FlowConfig& c, common::Hasher& h) {
         h.u64(c.ps.size());
         for (double p : c.ps) h.f64(p);
         h.i64(c.mcSamples);
         h.i64(c.mcMaxSamples);
         h.f64(c.mcTargetHalfWidth);
       },
       [](const PassIo& io) {
         sim::LatencyOptions lo;
         lo.mcSamples = io.config.mcSamples;
         lo.mcMaxSamples = io.config.mcMaxSamples;
         lo.mcTargetHalfWidth = io.config.mcTargetHalfWidth;
         io.out(Artifact::Latency,
                sim::compareLatencies(
                    io.in<sched::ScheduledDfg>(Artifact::Schedule),
                    io.config.ps, lo));
       }},
      {"verify",
       {Artifact::Schedule, Artifact::Distributed, Artifact::CentSync},
       {Artifact::Diagnostics},
       [](const FlowConfig& c, common::Hasher& h) {
         hashAllocation(h, c.allocation);
         h.u64(c.verifyMaxStates);
         // Only whether the explicit model check runs matters here; the
         // symbolic engine's own budgets key the symbolic-check pass.
         h.boolean(c.modelCheck == ModelCheckMode::Symbolic);
       },
       [](const PassIo& io) {
         verify::VerifyOptions vo;
         vo.requestedAllocation = &io.config.allocation;
         vo.centSync = &io.in<fsm::Fsm>(Artifact::CentSync);
         vo.modelCheckMaxStates = io.config.verifyMaxStates;
         // In symbolic mode the explicit product exploration is skipped
         // entirely; the symbolic-check pass supplies the MDL verdicts.
         vo.modelCheck = io.config.modelCheck != ModelCheckMode::Symbolic;
         io.out(Artifact::Diagnostics,
                verify::verifyFlow(
                    io.in<sched::ScheduledDfg>(Artifact::Schedule),
                    io.in<fsm::DistributedControlUnit>(Artifact::Distributed),
                    vo));
       }},
      {"symbolic-check",
       {Artifact::Schedule, Artifact::Distributed, Artifact::CentSync},
       {Artifact::SymbolicCheck},
       [](const FlowConfig& c, common::Hasher& h) {
         h.i64(c.symbolicMaxDepth);
         h.u64(c.symbolicMaxConflicts);
       },
       [](const PassIo& io) {
         verify::SymbolicCheckOptions so;
         so.maxDepth = io.config.symbolicMaxDepth;
         so.maxConflicts = io.config.symbolicMaxConflicts;
         io.out(Artifact::SymbolicCheck,
                verify::symbolicModelCheck(
                    io.in<fsm::DistributedControlUnit>(Artifact::Distributed),
                    io.in<sched::ScheduledDfg>(Artifact::Schedule),
                    &io.in<fsm::Fsm>(Artifact::CentSync), so));
       }},
      {"cent-fsm",
       {Artifact::Distributed},
       {Artifact::CentFsm},
       [](const FlowConfig& c, common::Hasher& h) {
         h.u64(c.centFsmMaxStates);
       },
       [](const PassIo& io) {
         fsm::ProductOptions opt;
         opt.maxStates = io.config.centFsmMaxStates;
         io.out(Artifact::CentFsm,
                fsm::buildProduct(
                    io.in<fsm::DistributedControlUnit>(Artifact::Distributed),
                    opt));
       }},
      {"area-dist",
       {Artifact::Distributed},
       {Artifact::DistArea},
       [](const FlowConfig& c, common::Hasher& h) {
         h.u64(static_cast<std::uint64_t>(c.encoding));
       },
       [](const PassIo& io) {
         io.out(Artifact::DistArea,
                synth::distributedArea(
                    io.in<fsm::DistributedControlUnit>(Artifact::Distributed),
                    io.config.encoding));
       }},
      {"area-cent-sync",
       {Artifact::CentSync},
       {Artifact::CentSyncArea},
       [](const FlowConfig& c, common::Hasher& h) {
         h.u64(static_cast<std::uint64_t>(c.encoding));
       },
       [](const PassIo& io) {
         io.out(Artifact::CentSyncArea,
                synth::areaRow("CENT-SYNC-FSM",
                               io.in<fsm::Fsm>(Artifact::CentSync),
                               io.config.encoding));
       }},
      {"area-cent-fsm",
       {Artifact::CentFsm},
       {Artifact::CentFsmArea},
       [](const FlowConfig& c, common::Hasher& h) {
         h.u64(static_cast<std::uint64_t>(c.encoding));
       },
       [](const PassIo& io) {
         io.out(Artifact::CentFsmArea,
                synth::areaRow("CENT-FSM", io.in<fsm::Fsm>(Artifact::CentFsm),
                               io.config.encoding));
       }},
      {"rtl",
       {Artifact::Distributed},
       {Artifact::Rtl},
       noConfig,
       [](const PassIo& io) {
         io.out(Artifact::Rtl,
                rtl::emitPackage(
                    io.in<fsm::DistributedControlUnit>(Artifact::Distributed),
                    topModuleName(io.graph.name())));
       }},
      {"equiv",
       {Artifact::Distributed},
       {Artifact::Equivalence},
       [](const FlowConfig& c, common::Hasher& h) {
         h.u64(static_cast<std::uint64_t>(c.encoding));
         h.u64(c.equivMaxConflicts);
       },
       [](const PassIo& io) {
         verify::EquivOptions eo;
         eo.style = io.config.encoding;
         eo.maxConflicts = io.config.equivMaxConflicts;
         verify::EquivalenceArtifact art;
         art.report = verify::checkEquivalence(
             io.in<fsm::DistributedControlUnit>(Artifact::Distributed), eo,
             &art.stats);
         io.out(Artifact::Equivalence, std::move(art));
       }},
      {"xcheck",
       {Artifact::Distributed},
       {Artifact::XCheck},
       [](const FlowConfig& c, common::Hasher& h) {
         h.u64(static_cast<std::uint64_t>(c.encoding));
         h.i64(c.xpropCycles);
         h.i64(c.xpropWords);
         h.i64(c.dcsMaxDepth);
         h.u64(c.dcsMaxConflicts);
       },
       [](const PassIo& io) {
         const auto& dcu =
             io.in<fsm::DistributedControlUnit>(Artifact::Distributed);
         const std::string artifact = "dcu " + io.graph.name();
         verify::XprOptions xo;
         xo.style = io.config.encoding;
         xo.maxCycles = io.config.xpropCycles;
         xo.words = io.config.xpropWords;
         verify::DcsOptions dco;
         dco.style = io.config.encoding;
         dco.maxDepth = io.config.dcsMaxDepth;
         dco.maxConflicts = io.config.dcsMaxConflicts;
         verify::XCheckArtifact art;
         art.xprop = verify::checkXprop(dcu, artifact, art.report, xo);
         art.dcs = verify::checkDcs(dcu, artifact, art.report, dco);
         io.out(Artifact::XCheck, std::move(art));
       }},
      {"timing",
       {Artifact::Schedule, Artifact::Distributed},
       {Artifact::Timing},
       [](const FlowConfig& c, common::Hasher& h) {
         h.u64(static_cast<std::uint64_t>(c.encoding));
         h.f64(c.timingMarginNs);
       },
       [](const PassIo& io) {
         verify::TimingOptions to;
         to.marginNs = io.config.timingMarginNs;
         to.style = io.config.encoding;
         io.out(Artifact::Timing,
                verify::checkTiming(
                    io.in<fsm::DistributedControlUnit>(Artifact::Distributed),
                    io.in<sched::ScheduledDfg>(Artifact::Schedule).clockNs,
                    to));
       }},
  };
  return passes;
}

/// Producing pass of each artifact (index into passRegistry()).
const std::array<int, kNumArtifacts>& producerIndex() {
  static const std::array<int, kNumArtifacts> producers = [] {
    std::array<int, kNumArtifacts> p{};
    p.fill(-1);
    const auto& passes = passRegistry();
    for (std::size_t i = 0; i < passes.size(); ++i) {
      for (Artifact a : passes[i].outputs) {
        TAUHLS_ASSERT(p[idx(a)] < 0, "artifact has two producing passes");
        p[idx(a)] = static_cast<int>(i);
      }
    }
    for (int producer : p) {
      TAUHLS_ASSERT(producer >= 0, "artifact has no producing pass");
    }
    return p;
  }();
  return producers;
}

/// Semantic size of a materialized artifact, for the trace (states for
/// machines, nodes for schedules, bytes for text, entries otherwise).
std::uint64_t semanticSize(const sched::ScheduledDfg& s) {
  return s.graph.numNodes();
}
std::uint64_t semanticSize(const fsm::DistributedControlUnit& dcu) {
  return dcu.totalStates();
}
std::uint64_t semanticSize(const fsm::SignalOptStats& s) {
  return static_cast<std::uint64_t>(s.removedOutputs + s.keptOutputs);
}
std::uint64_t semanticSize(const fsm::Fsm& f) { return f.numStates(); }
std::uint64_t semanticSize(const sim::LatencyComparison& l) {
  return l.ps.size();
}
std::uint64_t semanticSize(const verify::Report& r) {
  return r.diagnostics().size();
}
std::uint64_t semanticSize(const synth::DistributedAreaReport& rep) {
  return static_cast<std::uint64_t>(rep.total.totalArea());
}
std::uint64_t semanticSize(const synth::AreaRow& row) {
  return static_cast<std::uint64_t>(row.totalArea());
}
std::uint64_t semanticSize(const std::string& text) { return text.size(); }
// Functions proven / properties checked, not diagnostics: the semantic work
// of the pass.
std::uint64_t semanticSize(const verify::EquivalenceArtifact& art) {
  return static_cast<std::uint64_t>(art.stats.functionsCompared);
}
std::uint64_t semanticSize(const verify::SymbolicArtifact& art) {
  return art.stats.properties.size();
}
std::uint64_t semanticSize(const verify::XCheckArtifact& art) {
  return art.xprop.properties.size() + art.dcs.properties.size();
}

std::uint64_t artifactSizeOf(Artifact a, const std::any& slot) {
  return visitArtifactType(a, [&](auto type) {
    using T = typename decltype(type)::type;
    return semanticSize(*std::any_cast<const std::shared_ptr<const T>&>(slot));
  });
}

double microsSince(std::chrono::steady_clock::time_point origin,
                   std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

std::string percent(double ratio) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << ratio * 100.0 << "%";
  return os.str();
}

}  // namespace

const char* artifactName(Artifact a) {
  switch (a) {
    case Artifact::Schedule: return "schedule";
    case Artifact::RawDistributed: return "raw-distributed";
    case Artifact::Distributed: return "distributed";
    case Artifact::SignalStats: return "signal-stats";
    case Artifact::CentSync: return "cent-sync";
    case Artifact::Latency: return "latency";
    case Artifact::CentFsm: return "cent-fsm";
    case Artifact::Diagnostics: return "diagnostics";
    case Artifact::DistArea: return "area-dist";
    case Artifact::CentSyncArea: return "area-cent-sync";
    case Artifact::CentFsmArea: return "area-cent-fsm";
    case Artifact::Rtl: return "rtl";
    case Artifact::Equivalence: return "equivalence";
    case Artifact::Timing: return "timing";
    case Artifact::SymbolicCheck: return "symbolic-check";
    case Artifact::XCheck: return "xcheck";
  }
  return "unknown";
}

const char* cacheTierName(CacheTier tier) {
  switch (tier) {
    case CacheTier::Miss: return "miss";
    case CacheTier::Memory: return "hit";
    case CacheTier::Disk: return "disk";
  }
  return "unknown";
}

void validateFlowConfig(const FlowConfig& config) {
  TAUHLS_CHECK(!config.ps.empty(),
               "FlowConfig.ps is empty: the latency sweep needs at least one "
               "SD-probability value");
  for (std::size_t i = 0; i < config.ps.size(); ++i) {
    const double p = config.ps[i];
    TAUHLS_CHECK(p > 0.0 && p <= 1.0,
                 "FlowConfig.ps[" + std::to_string(i) + "] = " +
                     std::to_string(p) +
                     " is outside (0, 1]: P is the probability that a TAU "
                     "operand hits the short-delay class");
  }
  TAUHLS_CHECK(config.mcSamples > 0,
               "FlowConfig.mcSamples = " + std::to_string(config.mcSamples) +
                   " must be positive (Monte-Carlo fallback sample count)");
  for (const auto& [cls, count] : config.allocation) {
    TAUHLS_CHECK(count >= 1,
                 std::string("FlowConfig.allocation[") +
                     dfg::resourceClassName(cls) + "] = " +
                     std::to_string(count) +
                     ": every allocated class needs at least one unit "
                     "(omit the class for full concurrency)");
  }
  if (config.buildCentFsm) {
    TAUHLS_CHECK(config.centFsmMaxStates > 0,
                 "FlowConfig.centFsmMaxStates must be positive when "
                 "buildCentFsm is set");
  }
  if (config.verify) {
    TAUHLS_CHECK(config.verifyMaxStates > 0,
                 "FlowConfig.verifyMaxStates must be positive when verify is "
                 "set");
  }
}

std::string formatCacheSummary(const CacheStats& stats) {
  std::ostringstream os;
  os << stats.misses << " pass runs, " << stats.hits << " cache hits ("
     << percent(stats.hitRate()) << " hit rate), " << stats.entries
     << " artifacts cached";
  if (stats.diskHits > 0) os << ", " << stats.diskHits << " served from disk";
  if (stats.evictions > 0) os << ", " << stats.evictions << " evictions";
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> merged;
  for (const auto& [pass, runs] : stats.runsPerPass) merged[pass].first = runs;
  for (const auto& [pass, hits] : stats.hitsPerPass) merged[pass].second = hits;
  const char* sep = "; runs/hits per pass: ";
  for (const auto& [pass, counts] : merged) {
    os << sep << pass << " " << counts.first << "/" << counts.second;
    sep = ", ";
  }
  return os.str();
}

ArtifactCache::ArtifactCache(std::size_t maxEntries)
    : maxEntries_(maxEntries) {}

void ArtifactCache::attachStore(std::shared_ptr<ArtifactStore> store) {
  std::lock_guard<std::mutex> lock(mu_);
  store_ = std::move(store);
}

std::shared_ptr<ArtifactStore> ArtifactCache::store() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_;
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.entries = entries_.size();
  return s;
}

std::size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

std::optional<std::any> ArtifactCache::findInMemory(
    const common::Fingerprint& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  // Refresh recency: a hit moves the entry to the front of the LRU list.
  lru_.splice(lru_.begin(), lru_, it->second.lruIt);
  return it->second.value;
}

void ArtifactCache::insertInMemory(const common::Fingerprint& key,
                                   std::any value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Content-addressed: equal keys mean equal artifacts, so keep the
    // existing value and just refresh its recency.
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    return;
  }
  if (maxEntries_ != 0 && entries_.size() >= maxEntries_) {
    // True LRU: evict exactly the least-recently-used entry (list back).
    const common::Fingerprint victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(key);
  entries_.emplace(key, MemoryEntry{std::move(value), lru_.begin()});
}

std::optional<std::any> ArtifactCache::find(const common::Fingerprint& key,
                                            Artifact artifact,
                                            CacheTier* tier) {
  if (auto value = findInMemory(key)) {
    if (tier) *tier = CacheTier::Memory;
    return value;
  }
  std::shared_ptr<ArtifactStore> disk = store();
  if (disk) {
    // Disk tier: fetch + decode outside the cache lock (the store has its
    // own), then promote into the memory tier so reuse within this process
    // is a pointer copy.
    const auto blob = disk->load(key, static_cast<std::uint32_t>(artifact));
    if (blob) {
      try {
        std::any value = decodeArtifact(artifact, blob->data(), blob->size());
        insertInMemory(key, value);
        if (tier) *tier = CacheTier::Disk;
        return value;
      } catch (const Error&) {
        // A blob that passed the checksum but fails the codec's validation
        // (e.g. written by a build with different semantics) is a miss.
      }
    }
  }
  if (tier) *tier = CacheTier::Miss;
  return std::nullopt;
}

void ArtifactCache::insert(const common::Fingerprint& key, Artifact artifact,
                           std::any value) {
  std::shared_ptr<ArtifactStore> disk = store();
  if (disk && !disk->contains(key)) {
    try {
      disk->put(key, static_cast<std::uint32_t>(artifact),
                encodeArtifact(artifact, value));
    } catch (const Error&) {
      // Persistence is best-effort: a full or read-only disk must never fail
      // the flow itself -- the artifact simply stays memory-only.
    }
  }
  insertInMemory(key, std::move(value));
}

void ArtifactCache::recordPass(const std::string& pass, CacheTier tier) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tier == CacheTier::Miss) {
    ++stats_.misses;
    ++stats_.runsPerPass[pass];
    return;
  }
  ++stats_.hits;
  ++stats_.hitsPerPass[pass];
  if (tier == CacheTier::Disk) {
    ++stats_.diskHits;
    ++stats_.diskHitsPerPass[pass];
  }
}

std::string traceToChromeJson(const std::vector<TracedRun>& runs) {
  JsonWriter w;
  w.beginObject();
  w.key("traceEvents").beginArray();
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::size_t pid = r + 1;
    w.beginObject();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(0);
    w.key("args").beginObject();
    w.key("name").value(runs[r].name);
    w.endObject();
    w.endObject();
    for (const PassTraceEvent& ev : runs[r].events) {
      w.beginObject();
      w.key("name").value(ev.pass);
      w.key("cat").value("pass");
      w.key("ph").value("X");
      w.key("pid").value(pid);
      w.key("tid").value(ev.lane);
      w.key("ts").fixed(ev.startUs);
      w.key("dur").fixed(ev.durationUs);
      w.key("args").beginObject();
      w.key("cache").value(cacheTierName(ev.tier));
      w.key("wave").value(ev.wave);
      w.key("size").value(ev.artifactSize);
      for (const auto& [key, value] : ev.extraArgs) w.key(key).value(value);
      w.endObject();
      w.endObject();
    }
  }
  w.endArray();
  w.endObject();
  return w.str() + "\n";
}

FlowPipeline::FlowPipeline(const dfg::Dfg& graph, FlowConfig config,
                           std::shared_ptr<ArtifactCache> cache)
    : graph_(graph),
      config_(std::move(config)),
      cache_(std::move(cache)),
      start_(std::chrono::steady_clock::now()) {
  validateFlowConfig(config_);
  dfgFingerprint_ = fingerprintDfg(graph_);

  // Merkle derivation of every artifact key: a pass key folds the DFG
  // fingerprint, the pass's declared config fields, and its inputs' keys;
  // output keys salt the pass key with the artifact id.  Keys therefore
  // change exactly when something the artifact can depend on changes.
  const auto& passes = passRegistry();
  for (const PassDef& pass : passes) {
    common::Hasher h;
    h.str("tauhls-pass-v1");
    h.str(pass.name);
    h.fingerprint(dfgFingerprint_);
    pass.configKey(config_, h);
    for (Artifact input : pass.inputs) {
      h.fingerprint(artifactKeys_[idx(input)]);
    }
    const common::Fingerprint passKey = h.digest();
    for (Artifact output : pass.outputs) {
      common::Hasher ho(passKey);
      ho.str(artifactName(output));
      artifactKeys_[idx(output)] = ho.digest();
    }
  }
}

bool FlowPipeline::has(Artifact a) const {
  return slots_[idx(a)].has_value();
}

common::Fingerprint FlowPipeline::artifactKey(Artifact a) const {
  return artifactKeys_[idx(a)];
}

void FlowPipeline::require(const std::vector<Artifact>& artifacts) {
  const auto& passes = passRegistry();
  const auto& producers = producerIndex();

  // Demand closure: every pass producing a missing requested artifact, plus
  // transitively the producers of its missing inputs.
  std::vector<char> needed(passes.size(), 0);
  std::vector<Artifact> stack;
  for (Artifact a : artifacts) {
    if (!has(a)) stack.push_back(a);
  }
  while (!stack.empty()) {
    const Artifact a = stack.back();
    stack.pop_back();
    const int pi = producers[idx(a)];
    if (needed[static_cast<std::size_t>(pi)]) continue;
    needed[static_cast<std::size_t>(pi)] = 1;
    for (Artifact input : passes[static_cast<std::size_t>(pi)].inputs) {
      if (!has(input)) stack.push_back(input);
    }
  }

  // Wave execution: every pass whose inputs are materialized runs in the
  // current wave, concurrently on the global pool.  The wave decomposition
  // depends only on the pass DAG and the demand set -- never on the thread
  // count -- so execution (and the trace's wave numbering) is deterministic.
  std::vector<char> done(passes.size(), 0);
  int wave = static_cast<int>(events_.empty()
                                  ? 0
                                  : events_.back().wave + 1);
  while (true) {
    std::vector<std::size_t> ready;
    bool pending = false;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      if (!needed[i] || done[i]) continue;
      pending = true;
      bool inputsReady = true;
      for (Artifact input : passes[i].inputs) {
        if (!has(input)) inputsReady = false;
      }
      if (inputsReady) ready.push_back(i);
    }
    if (!pending) break;
    TAUHLS_ASSERT(!ready.empty(),
                  "pass pipeline stalled: unsatisfiable dependencies");

    std::vector<PassTraceEvent> waveEvents(ready.size());
    common::parallelFor(ready.size(), [&](std::size_t lane) {
      const PassDef& pass = passes[ready[lane]];
      const auto t0 = std::chrono::steady_clock::now();
      PassTraceEvent& ev = waveEvents[lane];
      ev.pass = pass.name;
      ev.wave = wave;
      ev.lane = static_cast<int>(lane);
      ev.startUs = microsSince(start_, t0);

      bool hit = false;
      CacheTier tier = CacheTier::Miss;
      if (cache_) {
        std::vector<std::any> cached;
        cached.reserve(pass.outputs.size());
        hit = true;
        // The pass's tier is the slowest tier any of its outputs came from:
        // one disk-served output makes the whole evaluation a disk hit.
        // Probe every output even after the first miss: a probe is what
        // validates (and unlinks) a corrupted blob, and the recompute's
        // write-through below skips keys whose blob file still exists.
        CacheTier passTier = CacheTier::Memory;
        for (Artifact output : pass.outputs) {
          CacheTier outputTier = CacheTier::Miss;
          auto value =
              cache_->find(artifactKeys_[idx(output)], output, &outputTier);
          if (!value) {
            hit = false;
            continue;
          }
          if (outputTier == CacheTier::Disk) passTier = CacheTier::Disk;
          if (hit) cached.push_back(std::move(*value));
        }
        if (hit) {
          tier = passTier;
          for (std::size_t o = 0; o < pass.outputs.size(); ++o) {
            slots_[idx(pass.outputs[o])] = std::move(cached[o]);
          }
        }
      }
      if (!hit) {
        const PassIo io{graph_, config_, slots_};
        pass.run(io);
        if (cache_) {
          for (Artifact output : pass.outputs) {
            cache_->insert(artifactKeys_[idx(output)], output,
                           slots_[idx(output)]);
          }
        }
      }
      if (cache_) cache_->recordPass(pass.name, tier);

      ev.cacheHit = hit;
      ev.tier = tier;
      ev.durationUs =
          microsSince(start_, std::chrono::steady_clock::now()) - ev.startUs;
      for (Artifact output : pass.outputs) {
        ev.artifactSize += artifactSizeOf(output, slots_[idx(output)]);
        if (output == Artifact::Equivalence) {
          const auto& art = *std::any_cast<
              const std::shared_ptr<const verify::EquivalenceArtifact>&>(
              slots_[idx(output)]);
          for (const auto& [code, cost] : art.stats.ruleCost) {
            ev.extraArgs.emplace_back(code + ".queries", cost.queries);
            ev.extraArgs.emplace_back(code + ".simDischarged",
                                      cost.simDischarged);
            ev.extraArgs.emplace_back(code + ".conflicts", cost.conflicts);
          }
        }
        if (output == Artifact::SymbolicCheck) {
          const auto& art = *std::any_cast<
              const std::shared_ptr<const verify::SymbolicArtifact>&>(
              slots_[idx(output)]);
          for (const verify::SymbolicProperty& p : art.stats.properties) {
            ev.extraArgs.emplace_back(
                p.rule + ".depth",
                static_cast<std::uint64_t>(
                    p.depthReached < 0 ? 0 : p.depthReached));
            ev.extraArgs.emplace_back(
                p.rule + ".k", static_cast<std::uint64_t>(p.inductionK));
            ev.extraArgs.emplace_back(p.rule + ".conflicts",
                                      p.cost.conflicts);
            ev.extraArgs.emplace_back(p.rule + ".queries", p.cost.queries);
          }
        }
        if (output == Artifact::XCheck) {
          const auto& art = *std::any_cast<
              const std::shared_ptr<const verify::XCheckArtifact>&>(
              slots_[idx(output)]);
          ev.extraArgs.emplace_back("xprop.gateEvals", art.xprop.gateEvals);
          ev.extraArgs.emplace_back("xprop.instances", art.xprop.instances);
          ev.extraArgs.emplace_back(
              "xprop.resetDepth",
              static_cast<std::uint64_t>(
                  art.xprop.resetDepth < 0 ? 0 : art.xprop.resetDepth));
          for (const auto& [code, cost] : art.dcs.ruleCost()) {
            ev.extraArgs.emplace_back(code + ".conflicts", cost.conflicts);
            ev.extraArgs.emplace_back(code + ".queries", cost.queries);
          }
        }
      }
    });
    for (std::size_t i : ready) done[i] = 1;
    for (PassTraceEvent& ev : waveEvents) events_.push_back(std::move(ev));
    ++wave;
  }
}

verify::Report FlowPipeline::modelCheckedDiagnostics() {
  verify::Report report = get<verify::Report>(Artifact::Diagnostics);
  if (config_.modelCheck == ModelCheckMode::Explicit) return report;
  const bool wantSymbolic =
      config_.modelCheck == ModelCheckMode::Symbolic || report.has("MDL007");
  if (!wantSymbolic) return report;
  const auto& sym = get<verify::SymbolicArtifact>(Artifact::SymbolicCheck);
  if (report.has("MDL007")) {
    // The symbolic verdicts supersede the explicit engine's capitulation.
    verify::Report filtered;
    for (const verify::Diagnostic& d : report.diagnostics()) {
      if (d.code != "MDL007") filtered.add(d.code, d.artifact, d.where,
                                           d.message);
    }
    report = std::move(filtered);
  }
  // Dedup on merge: in auto mode the explicit engine already swept the
  // CENT-SYNC baseline, which the symbolic engine repeats verbatim.
  for (const verify::Diagnostic& d : sym.report.diagnostics()) {
    bool duplicate = false;
    for (const verify::Diagnostic& existing : report.diagnostics()) {
      if (existing == d) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) report.add(d.code, d.artifact, d.where, d.message);
  }
  return report;
}

FlowResult FlowPipeline::run() {
  // Stage 1 mirrors the monolithic flow up to its verification gate: the
  // schedule derivations and (when enabled) the static checks.  Latency runs
  // in the same stage, exactly as the monolith overlapped it.
  std::vector<Artifact> first = {Artifact::Schedule, Artifact::Distributed,
                                 Artifact::SignalStats, Artifact::CentSync,
                                 Artifact::Latency};
  if (config_.verify) first.push_back(Artifact::Diagnostics);
  require(first);

  FlowResult r;
  r.scheduled = get<sched::ScheduledDfg>(Artifact::Schedule);
  r.distributed = get<fsm::DistributedControlUnit>(Artifact::Distributed);
  r.signalStats = get<fsm::SignalOptStats>(Artifact::SignalStats);
  r.centSync = get<fsm::Fsm>(Artifact::CentSync);
  r.latency = get<sim::LatencyComparison>(Artifact::Latency);
  if (config_.verify) {
    r.diagnostics = modelCheckedDiagnostics();
    throwIfVerificationFailed(r.diagnostics);
  }

  // Stage 2, behind the gate: the explicit product and the area model, in
  // the monolith's order (a product-size failure precedes area synthesis).
  if (config_.buildCentFsm) {
    require({Artifact::CentFsm});
    r.centFsm = get<fsm::Fsm>(Artifact::CentFsm);
  }
  if (config_.synthesizeArea) {
    std::vector<Artifact> areas = {Artifact::DistArea, Artifact::CentSyncArea};
    if (config_.buildCentFsm) areas.push_back(Artifact::CentFsmArea);
    require(areas);
    r.distArea = get<synth::DistributedAreaReport>(Artifact::DistArea);
    r.centSyncArea = get<synth::AreaRow>(Artifact::CentSyncArea);
    if (config_.buildCentFsm) {
      r.centFsmArea = get<synth::AreaRow>(Artifact::CentFsmArea);
    }
  }
  return r;
}

void throwIfVerificationFailed(const verify::Report& report) {
  if (report.hasErrors()) {
    throw Error("static verification failed:\n" + verify::renderText(report));
  }
}

}  // namespace tauhls::core
