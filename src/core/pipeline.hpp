// Declarative pass pipeline over the flow's artifacts.
//
// The synthesis flow is modelled as a DAG of *passes* over immutable
// *artifacts* instead of a hand-sequenced monolith:
//
//   schedule ──┬─> distributed ─> signal-opt ─┬─> verify       ─> (gate)
//              │                              ├─> cent-fsm     ─> area-cent-fsm
//              ├─> cent-sync ─────────────────┤─> area-dist
//              ├─> latency                    ├─> rtl
//              ├────────────────> area-cent-sync (from cent-sync)
//              └─(+ signal-opt)─> equiv, timing, symbolic-check (demand-only)
//
// Each pass declares the artifacts it consumes and produces plus the
// FlowConfig fields it reads; the executor then provides
//
//   * demand-driven evaluation -- require() runs exactly the producer
//     closure of the requested artifacts, so a lint run never pays for the
//     area model or the latency statistics;
//   * safe parallelism -- every wave of ready passes is fanned out on the
//     global deterministic thread pool (common/parallel.hpp), subsuming the
//     hand-rolled parallelFor switches the monolithic flow used;
//   * content-addressed caching -- a pass's key is a fingerprint of the DFG,
//     the config fields it declares, and its inputs' keys (a Merkle
//     derivation), so flows sharing a prefix share the artifacts: a P sweep
//     re-runs only the latency pass, and static verification runs once per
//     distinct (schedule, controllers) pair no matter how many sweep points
//     reuse them;
//   * per-pass observability -- wall time, cache hit/miss and artifact sizes
//     per executed pass, exportable as a chrome://tracing JSON trace
//     (`tauhlsc flow --trace-json`).
//
// runFlow (core/flow.hpp) is a thin façade over this pipeline and its
// results are bit-identical to the former hand-sequenced flow; sweep callers
// (explore/pareto, bench/*) construct FlowPipeline directly and share an
// ArtifactCache across points.  See docs/PIPELINE.md.
#pragma once

#include <any>
#include <array>
#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/flow.hpp"

namespace tauhls::verify {
struct EquivalenceArtifact;  // verify/equiv_check.hpp
struct SymbolicArtifact;     // verify/symbolic_check.hpp
struct XCheckArtifact;       // verify/xprop_check.hpp
}  // namespace tauhls::verify

namespace tauhls::core {

class ArtifactStore;  // core/store.hpp -- the optional persistent tier

/// Every artifact the flow can produce.  Each id maps to exactly one C++
/// type, given by visitArtifactType below (and enforced by the typed
/// accessors).  Equivalence, Timing, SymbolicCheck and XCheck are
/// demand-only: the standard run() never requests them directly; `tauhlsc
/// lint --equiv/--timing/--xprop`, the `--model-check symbolic|auto` modes
/// (and tests) pull them explicitly.
enum class Artifact : int {
  Schedule = 0,
  RawDistributed,
  Distributed,
  SignalStats,
  CentSync,
  Latency,
  CentFsm,
  Diagnostics,
  DistArea,
  CentSyncArea,
  CentFsmArea,
  Rtl,
  Equivalence,
  Timing,
  SymbolicCheck,
  XCheck,
};

inline constexpr int kNumArtifacts = 16;

/// Type tag handed to visitArtifactType's callback.
template <class T>
struct ArtifactType {
  using type = T;
};

/// The artifact kind -> C++ type table, the one place that decision is
/// made: calls `f(ArtifactType<T>{})` with the type `a` holds and returns
/// what `f` returns.  The codecs (core/serialize.cpp), the trace's artifact
/// sizes and the tests dispatch through it.
template <class F>
decltype(auto) visitArtifactType(Artifact a, F&& f) {
  switch (a) {
    case Artifact::Schedule:  // schedule + binding
      return f(ArtifactType<sched::ScheduledDfg>{});
    case Artifact::RawDistributed:  // Algorithm 1, pre signal-opt
    case Artifact::Distributed:     // post signal-opt
      return f(ArtifactType<fsm::DistributedControlUnit>{});
    case Artifact::SignalStats:
      return f(ArtifactType<fsm::SignalOptStats>{});
    case Artifact::CentSync:  // CENT-SYNC-FSM baseline
    case Artifact::CentFsm:   // explicit product machine
      return f(ArtifactType<fsm::Fsm>{});
    case Artifact::Latency:  // Table 2 statistics
      return f(ArtifactType<sim::LatencyComparison>{});
    case Artifact::Diagnostics:  // static verification
    case Artifact::Timing:       // STA against CC_TAU
      return f(ArtifactType<verify::Report>{});
    case Artifact::DistArea:
      return f(ArtifactType<synth::DistributedAreaReport>{});
    case Artifact::CentSyncArea:
    case Artifact::CentFsmArea:
      return f(ArtifactType<synth::AreaRow>{});
    case Artifact::Rtl:  // full Verilog package
      return f(ArtifactType<std::string>{});
    case Artifact::Equivalence:  // SAT translation validation
      return f(ArtifactType<verify::EquivalenceArtifact>{});
    case Artifact::SymbolicCheck:  // BMC + k-induction verdicts
      return f(ArtifactType<verify::SymbolicArtifact>{});
    case Artifact::XCheck:  // X-propagation + don't-care soundness
      return f(ArtifactType<verify::XCheckArtifact>{});
  }
  TAUHLS_FAIL("unknown artifact kind");
}

/// Stable display name ("schedule", "latency", ...).
const char* artifactName(Artifact a);

/// Validate a FlowConfig before any pass runs; throws tauhls::Error with a
/// message naming the offending field (empty or out-of-(0,1] `ps` entries,
/// non-positive `mcSamples`, zero-unit allocation entries, zero state
/// budgets).  Called by the FlowPipeline constructor, so every entry point
/// (runFlow, the CLI, the sweep drivers) fails fast with the same message.
void validateFlowConfig(const FlowConfig& config);

/// Where a pass evaluation was served from.
enum class CacheTier : int {
  Miss = 0,    ///< executed (cache miss or no cache attached)
  Memory = 1,  ///< served from the in-process ArtifactCache
  Disk = 2,    ///< served from the persistent ArtifactStore
};

/// Stable display name ("miss", "hit", "disk") used in the pass trace.
const char* cacheTierName(CacheTier tier);

/// Aggregated cache counters.  "Runs" are pass executions (cache misses or
/// uncached executions); "hits" are pass evaluations fully served from the
/// cache -- memory and disk tiers combined, with `diskHits` counting the
/// disk-served subset.  Maps are keyed by pass name and ordered, so
/// rendering them is deterministic.
struct CacheStats {
  std::uint64_t hits = 0;      ///< memory + disk
  std::uint64_t diskHits = 0;  ///< subset of `hits` served from the store
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< in-memory LRU evictions under maxEntries
  std::size_t entries = 0;  ///< artifacts currently stored in memory
  std::map<std::string, std::uint64_t> runsPerPass;
  std::map<std::string, std::uint64_t> hitsPerPass;
  std::map<std::string, std::uint64_t> diskHitsPerPass;

  double hitRate() const {
    const double total = static_cast<double>(hits + misses);
    return total == 0.0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// One-line human summary ("42 pass runs, 120 hits (74.1% hit rate), ...").
std::string formatCacheSummary(const CacheStats& stats);

/// Thread-safe content-addressed artifact cache shared across FlowPipeline
/// runs.  Keys are Merkle-style fingerprints (see pipeline.cpp); values are
/// immutable shared artifacts, so a hit is a pointer copy.  Unbounded by
/// default; pass `maxEntries` to bound the entry count with true LRU
/// eviction (a find or re-insert refreshes the entry; the least-recently
/// used entry is evicted first and counted in CacheStats.evictions).
///
/// Optionally backed by a persistent ArtifactStore (core/store.hpp): a
/// memory miss then consults the store (decoding the blob and promoting it
/// into the memory tier), and every executed pass's outputs are written
/// through to disk.  Lookup order is always memory -> disk -> recompute; a
/// corrupted or truncated blob is a miss, never an error.
class ArtifactCache {
 public:
  explicit ArtifactCache(std::size_t maxEntries = 0);

  /// Attach (or detach, with nullptr) the persistent tier.
  void attachStore(std::shared_ptr<ArtifactStore> store);
  std::shared_ptr<ArtifactStore> store() const;

  CacheStats stats() const;
  std::size_t size() const;
  void clear();  ///< empties the memory tier only; the store is untouched

 private:
  friend class FlowPipeline;

  /// Memory-then-disk lookup; `artifact` names the codec for the disk tier.
  /// On success `tier` (when non-null) reports which tier served it.
  std::optional<std::any> find(const common::Fingerprint& key,
                               Artifact artifact, CacheTier* tier);
  void insert(const common::Fingerprint& key, Artifact artifact,
              std::any value);
  void recordPass(const std::string& pass, CacheTier tier);

  std::optional<std::any> findInMemory(const common::Fingerprint& key);
  void insertInMemory(const common::Fingerprint& key, std::any value);

  struct MemoryEntry {
    std::any value;
    std::list<common::Fingerprint>::iterator lruIt;
  };

  mutable std::mutex mu_;
  std::size_t maxEntries_ = 0;
  std::unordered_map<common::Fingerprint, MemoryEntry, common::FingerprintHash>
      entries_;
  std::list<common::Fingerprint> lru_;  ///< front = most recently used
  std::shared_ptr<ArtifactStore> store_;
  CacheStats stats_;
};

/// One executed (or cache-served) pass in a pipeline run.
struct PassTraceEvent {
  std::string pass;
  double startUs = 0.0;     ///< from pipeline construction, microseconds
  double durationUs = 0.0;
  bool cacheHit = false;    ///< tier != Miss
  CacheTier tier = CacheTier::Miss;  ///< which tier served the pass
  int wave = 0;             ///< DAG wave the pass ran in
  int lane = 0;             ///< slot within the wave
  std::uint64_t artifactSize = 0;  ///< semantic size (states/nodes/bytes)
  /// Pass-specific counters, emitted verbatim as chrome-trace args (the
  /// equiv pass reports its per-rule SAT/simulation work here).
  std::vector<std::pair<std::string, std::uint64_t>> extraArgs;
};

/// A named pipeline run's events, for multi-design traces (one trace
/// "process" per run).
struct TracedRun {
  std::string name;
  std::vector<PassTraceEvent> events;
};

/// Render runs as a chrome://tracing / Perfetto-compatible JSON document
/// ({"traceEvents": [...]}; complete "X" events in microseconds, one pid per
/// run, one tid per wave lane).
std::string traceToChromeJson(const std::vector<TracedRun>& runs);

/// Demand-driven executor for one (graph, config) flow instance.
///
///   FlowPipeline pipe(graph, cfg, cache);      // cache optional
///   const auto& lat = pipe.get<sim::LatencyComparison>(Artifact::Latency);
///   FlowResult r = pipe.run();                 // the standard full flow
///
/// The graph reference must outlive the pipeline.  Artifacts are memoized in
/// the pipeline and, when a cache is attached, shared across pipelines whose
/// derivations agree.  All methods are safe to call from inside a
/// parallelFor task (nested parallel regions run inline).
class FlowPipeline {
 public:
  FlowPipeline(const dfg::Dfg& graph, FlowConfig config,
               std::shared_ptr<ArtifactCache> cache = nullptr);
  FlowPipeline(const FlowPipeline&) = delete;
  FlowPipeline& operator=(const FlowPipeline&) = delete;

  /// Compute the requested artifacts (and, transitively, everything they
  /// need that is not yet materialized).  Ready passes of each DAG wave run
  /// concurrently on the global pool.
  void require(const std::vector<Artifact>& artifacts);

  /// True when the artifact is already materialized in this pipeline.
  bool has(Artifact a) const;

  /// Typed access; computes the artifact on demand.  T must be the type
  /// visitArtifactType gives for `a` (mismatches throw).
  template <typename T>
  const T& get(Artifact a) {
    if (!has(a)) require({a});
    const auto& ptr = std::any_cast<const std::shared_ptr<const T>&>(
        slots_[static_cast<std::size_t>(a)]);
    return *ptr;
  }

  /// Run the standard flow for the held config -- the same artifact set,
  /// verification gate and failure behaviour as the pre-pipeline monolithic
  /// runFlow -- and assemble the public FlowResult.
  FlowResult run();

  /// Diagnostics under the configured model-check mode
  /// (FlowConfig::modelCheck).  Explicit: the verify pass's report verbatim.
  /// Symbolic: the verify pass ran without the explicit model check; the
  /// symbolic engine's verdicts are merged in.  Auto: explicit first -- when
  /// it degraded to MDL007, the MDL007 warnings are removed and the symbolic
  /// verdicts merged in their place (exact duplicates are dropped).  Demands
  /// the SymbolicCheck artifact only when the mode needs it.
  verify::Report modelCheckedDiagnostics();

  /// Everything executed (or cache-served) by this pipeline so far, in
  /// deterministic wave order.
  const std::vector<PassTraceEvent>& traceEvents() const { return events_; }

  const FlowConfig& config() const { return config_; }
  const dfg::Dfg& graph() const { return graph_; }

  /// Content-addressed key of an artifact under this (graph, config); stable
  /// across runs, processes and thread counts.  Exposed for tests and trace
  /// tooling.
  common::Fingerprint artifactKey(Artifact a) const;

 private:
  const dfg::Dfg& graph_;
  FlowConfig config_;
  std::shared_ptr<ArtifactCache> cache_;
  common::Fingerprint dfgFingerprint_;
  std::array<common::Fingerprint, kNumArtifacts> artifactKeys_;
  std::array<std::any, kNumArtifacts> slots_;
  std::vector<PassTraceEvent> events_;
  std::chrono::steady_clock::time_point start_;
};

/// Throw the flow's standard verification-gate error when `report` contains
/// error-severity diagnostics (shared by runFlow and the sweep drivers).
void throwIfVerificationFailed(const verify::Report& report);

}  // namespace tauhls::core
