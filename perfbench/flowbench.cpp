// One benchmark process: set up a workload, run one phase, print one JSON
// line.  run.py starts a fresh process per phase so every cold sample starts
// with an empty process-wide minimization memo (logic/minimize.cpp keeps one
// across calls; a second in-process "cold" run would be warm).
//
//   flowbench --workload W --phase setup|cold|warm-disk|trace
//                    --store DIR --seed N --threads T [--trace-json FILE]
//
//   setup      set up kSetupReps times (designs, pool, stores) and report
//              the median
//   cold       run against empty stores; the stores keep the artifacts
//   warm-disk  run on fresh caches over the stores a cold process filled
//              (both then rerun on the same caches for at least kWarmMemoryMs
//              and kWarmMemoryMinRuns runs: warm-memory, the fastest rerun)
//   trace      replay the workload's calls with one span per public call
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/store.hpp"
#include "json.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

// One set-up takes about a millisecond, too short for a single reading to be
// steady: a set-up process sets up this many times and reports the median.
constexpr int kSetupReps = 51;
// A warm-memory run takes 1-30 ms, and a shared host slows bursts of them by
// half: each process repeats the run for this window (at least
// kWarmMemoryMinRuns times) and reports the fastest.  Host load only ever adds
// time, so the fastest run is the one least disturbed; a per-process mean or
// median moved with the share of slowed runs (25% quartile spread between
// runs on table2-lint).
constexpr double kWarmMemoryMs = 50.0;
constexpr std::size_t kWarmMemoryMinRuns = 5;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Options {
  std::string workload;
  std::string phase;
  std::string store;
  std::string traceJson;
  std::uint64_t seed = 1;
  int threads = 1;
};

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--phase") o.phase = v;
    else if (a == "--store") o.store = v;
    else if (a == "--trace-json") o.traceJson = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--threads") o.threads = std::stoi(v);
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty() || o.store.empty() ||
      (o.phase != "setup" && o.phase != "cold" && o.phase != "warm-disk" &&
       o.phase != "trace") ||
      o.threads < 1) {
    throw std::invalid_argument(
        "usage: flowbench --workload W "
        "--phase setup|cold|warm-disk|trace "
        "--store DIR [--seed N] [--threads T] [--trace-json FILE]");
  }
  return o;
}

/// Everything a process builds before its first pass call.
struct Setup {
  std::unique_ptr<Workload> workload;
  CacheMap caches;
};

Setup setUp(const Options& o) {
  Setup s;
  s.workload = makeWorkload(o.workload, o.seed);
  tauhls::common::setGlobalThreadCount(o.threads);
  if (o.phase == "trace") return s;  // the replay runs uncached
  for (const std::string& name : s.workload->cacheNames()) {
    auto cache = std::make_shared<tauhls::core::ArtifactCache>();
    cache->attachStore(std::make_shared<tauhls::core::ArtifactStore>(
        tauhls::core::StoreOptions{fs::path(o.store) / name, 0}));
    s.caches.emplace(name, std::move(cache));
  }
  return s;
}

/// Peak resident set of this process image.  VmHWM rather than
/// getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so a child
/// of a large parent would report the parent's size at fork.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

Json provenance(const Options& o) {
  Json p = Json::object();
  p.set("compiler", PERFBENCH_COMPILER);
  p.set("flags", PERFBENCH_FLAGS);
  p.set("build_type", PERFBENCH_BUILD_TYPE);
  p.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  p.set("pool_threads", tauhls::common::globalThreadPool().threadCount());
  p.set("simd", tauhls::common::simd::backendName());
  p.set("seed", o.seed);
  return p;
}

tauhls::core::CacheStats sumStats(const CacheMap& caches) {
  tauhls::core::CacheStats total;
  for (const auto& [name, cache] : caches) {
    const tauhls::core::CacheStats s = cache->stats();
    total.hits += s.hits;
    total.diskHits += s.diskHits;
    total.misses += s.misses;
  }
  return total;
}

/// One regime's timing, cache counters and per-design outcome.
Json regime(const RunResult& rr, double ms,
            const tauhls::core::CacheStats& stats) {
  Json designs = Json::object();
  for (const auto& [id, d] : rr.designs) {
    Json row = Json::object();
    row.set("ok", d.ok);
    row.set("error", d.error);
    row.set("outputs", d.outputs);
    row.set("decided", d.decided);
    row.set("checked", d.checked);
    designs.set(id, std::move(row));
  }
  Json r = Json::object();
  r.set("ms", ms);
  r.set("hits", stats.hits);
  r.set("disk_hits", stats.diskHits);
  r.set("misses", stats.misses);
  r.set("designs", std::move(designs));
  return r;
}

Json runPhase(const Options& o, Setup& s) {
  Json out = Json::object();
  if (o.phase == "trace") {
    Tracer tracer;
    {
      Tracer::Scope root(tracer, "workload", o.workload);
      s.workload->replay(tracer);
    }
    Json layers = Json::object();
    for (const auto& [metric, value] : layerMetrics(tracer)) {
      layers.set(metric, value);
    }
    out.set("layers", std::move(layers));
    if (!o.traceJson.empty()) {
      std::ofstream f(o.traceJson);
      f << tracer.chromeTrace(provenance(o)).dump() << "\n";
      if (!f) throw std::runtime_error("cannot write " + o.traceJson);
    }
    return out;
  }

  auto t0 = Clock::now();
  const RunResult first = s.workload->run(s.caches);
  const double firstMs = msSince(t0);
  const tauhls::core::CacheStats firstStats = sumStats(s.caches);
  Json passes = Json::object();
  for (const auto& [pass, ms] : first.passMs) passes.set(pass, ms);
  out.set("pass_ms", std::move(passes));
  out.set("explore_points", first.explorePoints);

  Json regimes = Json::object();
  if (o.phase == "cold") {
    out.set("peak_rss_mb", peakRssMb());
    std::uint64_t blobs = 0;
    std::uint64_t bytes = 0;
    for (const auto& [name, cache] : s.caches) {
      blobs += cache->store()->stats().blobs;
      bytes += cache->store()->stats().bytes;
    }
    out.set("store_blobs", blobs);
    out.set("store_bytes", bytes);
    regimes.set("cold", regime(first, firstMs, firstStats));
  } else {
    regimes.set("warm_disk", regime(first, firstMs, firstStats));
  }

  // Then warm-memory, in cold and warm-disk processes alike: the same calls
  // against the now-populated caches (fastest over kWarmMemoryMs).
  std::vector<double> againMs;
  RunResult again;
  const auto warmStart = Clock::now();
  while (againMs.size() < kWarmMemoryMinRuns ||
         msSince(warmStart) < kWarmMemoryMs) {
    t0 = Clock::now();
    again = s.workload->run(s.caches);
    againMs.push_back(msSince(t0));
  }
  tauhls::core::CacheStats delta = sumStats(s.caches);
  delta.hits -= firstStats.hits;
  delta.diskHits -= firstStats.diskHits;
  delta.misses -= firstStats.misses;
  regimes.set("warm_memory",
              regime(again, *std::min_element(againMs.begin(), againMs.end()),
                     delta));
  out.set("regimes", std::move(regimes));
  if (o.phase == "cold") {
    for (const auto& [name, cache] : s.caches) cache->store()->flushIndex();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      std::cerr << "flowbench: built as '" << PERFBENCH_BUILD_TYPE
                << "'; timings are only taken from a Release build\n";
      return 2;
    }
    const Options o = parseArgs(argc, argv);

    Json out = Json::object();
    if (o.phase == "setup") {
      // Set up kSetupReps times and keep the median.  This runs in its own
      // process so the discarded set-ups do not inflate the cold process's
      // peak RSS.
      std::vector<double> setupMs;
      for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        const Setup s = setUp(o);
        setupMs.push_back(msSince(t0));
      }
      out.set("setup_s", median(setupMs) / 1000.0);
    } else {
      Setup s = setUp(o);
      out = runPhase(o, s);
    }
    out.set("workload", o.workload);
    out.set("phase", o.phase);
    out.set("provenance", provenance(o));
    std::cout << out.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "flowbench: " << e.what() << "\n";
    return 1;
  }
}
