// Pipeline cache trajectory -- the per-PR tracked benchmark for the pass
// pipeline and its two cache tiers (core/pipeline.hpp, core/store.hpp).
//
// Runs the Table 2 suite through three regimes:
//
//   cold         fresh memory cache + empty persistent store
//   warm-memory  same process, same memory cache (every pass a memory hit)
//   warm-disk    fresh memory cache + fresh store handle on the populated
//                directory, i.e. what a second `tauhlsc` process observes
//                (every pass served from disk, bit-identical results)
//
// and emits BENCH_pipeline.json in a stable, schema-versioned layout:
//
//   "structural"  deterministic counts (pass runs, hit/miss totals, store
//                 blob count and byte size).  These are identical on every
//                 machine; CI diffs them against the committed baseline
//                 (bench/baselines/BENCH_pipeline.json) via
//                 tools/compare_bench.py and fails on drift, so a
//                 change here is a deliberate, reviewed baseline update.
//   "timingsMs"   wall-clock milliseconds per regime and per pass.  Machine
//                 dependent; the comparator only reports their deltas.
//
// The bench also self-checks: warm runs must be 100% hits with bit-identical
// FlowResult JSON, else it exits non-zero.
//
//   pipeline_trajectory [--json FILE] [--store DIR]
#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "core/json.hpp"
#include "core/pipeline.hpp"
#include "core/store.hpp"

namespace {

namespace fs = std::filesystem;
using namespace tauhls;
using namespace tauhls::core;

struct RegimeResult {
  CacheStats stats;
  double ms = 0.0;
  std::string resultJson;  ///< concatenated FlowResult JSON (identity check)
  std::map<std::string, double> passUs;  ///< summed pass wall time
};

/// Run every suite benchmark through one shared cache; returns the cache
/// counters accumulated by exactly this sweep (delta vs the cache's prior
/// state is zero here because each regime uses a fresh ArtifactCache).
RegimeResult runSuite(const std::vector<dfg::NamedBenchmark>& suite,
                      const std::shared_ptr<ArtifactCache>& cache) {
  RegimeResult r;
  const auto t0 = std::chrono::steady_clock::now();
  for (const dfg::NamedBenchmark& b : suite) {
    FlowConfig cfg;
    cfg.allocation = b.allocation;
    FlowPipeline pipeline(b.graph, cfg, cache);
    r.resultJson += toJson(pipeline.run());
    for (const PassTraceEvent& ev : pipeline.traceEvents()) {
      r.passUs[ev.pass] += ev.durationUs;
    }
  }
  r.ms = bench::wallMs(t0);
  r.stats = cache->stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = "BENCH_pipeline.json";
  std::string storeDir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (a == "--store" && i + 1 < argc) {
      storeDir = argv[++i];
    } else {
      std::cerr << "usage: pipeline_trajectory [--json FILE] [--store DIR]\n";
      return 2;
    }
  }

  bench::banner("Pipeline cache trajectory (cold / warm-memory / warm-disk)");

  const fs::path dir =
      storeDir.empty() ? fs::temp_directory_path() / "tauhls_bench_store"
                       : fs::path(storeDir);
  fs::remove_all(dir);

  const auto suite = dfg::paperTable2Suite();

  // Cold: fresh memory cache, empty store.
  auto coldCache = std::make_shared<ArtifactCache>();
  coldCache->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  const RegimeResult cold = runSuite(suite, coldCache);
  const StoreStats storeStats = coldCache->store()->stats();

  // Warm-memory: the same cache again.
  const RegimeResult warmMem = runSuite(suite, coldCache);
  const CacheStats warmMemDelta = [&] {
    CacheStats d = warmMem.stats;
    d.hits -= cold.stats.hits;
    d.diskHits -= cold.stats.diskHits;
    d.misses -= cold.stats.misses;
    return d;
  }();

  // Warm-disk: a fresh memory cache and a fresh handle on the populated
  // store directory -- the cross-process path.
  coldCache->store()->flushIndex();
  auto diskCache = std::make_shared<ArtifactCache>();
  diskCache->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  const RegimeResult warmDisk = runSuite(suite, diskCache);

  std::cout << "cold:        " << formatCacheSummary(cold.stats) << "\n"
            << "warm-memory: " << formatCacheSummary(warmMemDelta) << "\n"
            << "warm-disk:   " << formatCacheSummary(warmDisk.stats) << "\n"
            << "store:       " << storeStats.blobs << " blobs, "
            << storeStats.bytes << " bytes\n";

  // Self-checks: the warm regimes recompute nothing and reproduce the cold
  // bits exactly.
  bool ok = true;
  if (warmMemDelta.misses != 0 || warmDisk.stats.misses != 0) {
    std::cerr << "FAIL: a warm regime recomputed a pass\n";
    ok = false;
  }
  if (warmDisk.stats.diskHits != warmDisk.stats.hits) {
    std::cerr << "FAIL: warm-disk regime was not fully disk-served\n";
    ok = false;
  }
  if (warmMem.resultJson != cold.resultJson ||
      warmDisk.resultJson != cold.resultJson) {
    std::cerr << "FAIL: warm results are not bit-identical to the cold run\n";
    ok = false;
  }
  std::cout << "Bit-identity: " << (ok ? "OK" : "FAILED") << "\n";

  // Emit the trajectory JSON.
  JsonWriter w;
  w.beginObject();
  w.key("schema").value("tauhls-bench-pipeline");
  w.key("version").value(1);
  w.key("benchmarks").value(suite.size());
  w.key("structural").beginObject();
  w.key("coldPassRuns").beginObject();
  for (const auto& [pass, runs] : cold.stats.runsPerPass) {
    w.key(pass).value(runs);
  }
  w.endObject();
  w.key("cold").beginObject();
  w.key("runs").value(cold.stats.misses);
  w.key("hits").value(cold.stats.hits);
  w.endObject();
  w.key("warmMemory").beginObject();
  w.key("hits").value(warmMemDelta.hits);
  w.key("misses").value(warmMemDelta.misses);
  w.endObject();
  w.key("warmDisk").beginObject();
  w.key("hits").value(warmDisk.stats.hits);
  w.key("diskHits").value(warmDisk.stats.diskHits);
  w.key("misses").value(warmDisk.stats.misses);
  w.key("hitRatePct").fixed(100.0 * warmDisk.stats.hitRate());
  w.endObject();
  w.key("store").beginObject();
  w.key("blobs").value(storeStats.blobs);
  w.key("bytes").value(storeStats.bytes);
  w.endObject();
  w.endObject();
  w.key("timingsMs").beginObject();
  w.key("cold").fixed(cold.ms);
  w.key("warmMemory").fixed(warmMem.ms);
  w.key("warmDisk").fixed(warmDisk.ms);
  w.key("coldPassMs").beginObject();
  for (const auto& [pass, us] : cold.passUs) w.key(pass).fixed(us / 1000.0);
  w.endObject();
  w.endObject();
  w.endObject();
  if (!bench::writeJson(jsonPath, w)) return 1;

  if (storeDir.empty()) fs::remove_all(dir);
  return ok ? 0 : 1;
}
