// Persistent artifact store (core/store.hpp) + artifact codecs
// (core/serialize.hpp): round-trips for every artifact kind, cross-process
// cache reuse, corruption fallback, LRU bounds, gc, and concurrency.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "core/json.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "core/store.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/kiss.hpp"
#include "rtl/verilog.hpp"
#include "verify/diagnostic.hpp"
#include "verify/equiv_check.hpp"
#include "verify/symbolic_check.hpp"
#include "verify/xprop_check.hpp"

namespace tauhls {
namespace {

namespace fs = std::filesystem;
using namespace tauhls::core;

/// Fresh per-test store directory under the gtest temp root.
fs::path freshDir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("tauhls_store_" + name);
  fs::remove_all(dir);
  return dir;
}

/// All artifact ids, in enum order.
std::vector<Artifact> allArtifacts() {
  std::vector<Artifact> all;
  for (int i = 0; i < kNumArtifacts; ++i) all.push_back(static_cast<Artifact>(i));
  return all;
}

/// A pipeline with every artifact materialized (cent-fsm + demand-only
/// passes included), over the first paper benchmark.
std::unique_ptr<FlowPipeline> materializeEverything(
    const dfg::Dfg& graph, const sched::Allocation& alloc,
    std::shared_ptr<ArtifactCache> cache = nullptr) {
  FlowConfig cfg;
  cfg.allocation = alloc;
  cfg.buildCentFsm = true;
  auto pipe = std::make_unique<FlowPipeline>(graph, cfg, std::move(cache));
  pipe->run();
  pipe->require({Artifact::Rtl, Artifact::Equivalence, Artifact::Timing,
                 Artifact::SymbolicCheck, Artifact::XCheck});
  return pipe;
}

/// The typed artifact `a` of `pipe`, reboxed the way the pipeline stores it
/// (shared_ptr<const T> inside std::any) so encodeArtifact accepts it.
std::any reboxed(FlowPipeline& pipe, Artifact a) {
  return visitArtifactType(a, [&](auto type) -> std::any {
    using T = typename decltype(type)::type;
    return std::make_shared<const T>(pipe.get<T>(a));
  });
}

TEST(Serialize, RoundTripsEveryArtifactKind) {
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.front();
  auto cache = std::make_shared<ArtifactCache>();
  auto pipe = materializeEverything(b.graph, b.allocation, cache);

  for (Artifact a : allArtifacts()) {
    SCOPED_TRACE(artifactName(a));
    ASSERT_TRUE(pipe->has(a));
    const std::any slotValue = reboxed(*pipe, a);
    const std::vector<std::uint8_t> bytes = encodeArtifact(a, slotValue);
    ASSERT_FALSE(bytes.empty());
    const std::any decoded = decodeArtifact(a, bytes.data(), bytes.size());
    // encode(decode(encode(x))) == encode(x): the codec is deterministic, so
    // byte equality of re-encodings is structural equality of the values.
    EXPECT_EQ(encodeArtifact(a, decoded), bytes);
  }

  // Targeted semantic spot-checks on the two richest kinds.
  {
    const auto& dcu = pipe->get<fsm::DistributedControlUnit>(Artifact::Distributed);
    const auto bytes = encodeArtifact(
        Artifact::Distributed,
        std::any(std::make_shared<const fsm::DistributedControlUnit>(dcu)));
    const auto decoded =
        decodeArtifact(Artifact::Distributed, bytes.data(), bytes.size());
    const auto& back =
        **std::any_cast<std::shared_ptr<const fsm::DistributedControlUnit>>(
            &decoded);
    EXPECT_EQ(rtl::emitPackage(dcu, "rt"), rtl::emitPackage(back, "rt"));
  }
  {
    const auto& machine = pipe->get<fsm::Fsm>(Artifact::CentSync);
    const auto bytes = encodeArtifact(
        Artifact::CentSync, std::any(std::make_shared<const fsm::Fsm>(machine)));
    const auto decoded =
        decodeArtifact(Artifact::CentSync, bytes.data(), bytes.size());
    const auto& back = **std::any_cast<std::shared_ptr<const fsm::Fsm>>(&decoded);
    EXPECT_EQ(fsm::toKiss2(machine), fsm::toKiss2(back));
    fsm::validateFsm(back);
  }
}

// The exact bytes of every artifact kind of the front Table 2 design (3rd
// FIR), fingerprinted.  The round trip above cannot see a layout that drifts
// the same way in encoder and decoder; this can.  A deliberate layout change
// bumps kArtifactCodecVersion and re-records these (docs/PIPELINE.md).
TEST(Serialize, PinsEveryArtifactKindsBytes) {
  static const std::map<Artifact, std::string> kPinned = {
      {Artifact::Schedule, "6edd488905167ca1d0e9158eca6ef788"},
      {Artifact::RawDistributed, "60e2bbe59db033da9e201df2b13600a5"},
      {Artifact::Distributed, "eb589bfad0afcf5bdeb97be605c51601"},
      {Artifact::SignalStats, "b96eea0ec7ee2d36af59b348c1a0073f"},
      {Artifact::CentSync, "e4c5127d65e2a3804563e1f10d636206"},
      {Artifact::Latency, "ebf13459ce8926ab3034cf7c79fc89c6"},
      {Artifact::CentFsm, "900b57aaf5c5ef865c926486ed6bd4c1"},
      {Artifact::Diagnostics, "9f2bd05db9df3f602e840077c2761006"},
      {Artifact::DistArea, "17cdbba518db48c0fc9de70d838e6d44"},
      {Artifact::CentSyncArea, "d763c7df65a1f209257b9215e9e50c18"},
      {Artifact::CentFsmArea, "3f6fad57bb698052a1efe179d851a8d7"},
      {Artifact::Rtl, "5b3883e9a4844153fa6d700bb486af84"},
      {Artifact::Equivalence, "3a0c9de65bddfe71d8c9fbc6ee383e55"},
      {Artifact::Timing, "93401985837a16d4017ba5c7ecbe09b3"},
      {Artifact::SymbolicCheck, "ef575f9fe94e04296bb817b5312ddfc5"},
      {Artifact::XCheck, "7c6182537815d41619385e9882b2a9eb"},
  };
  EXPECT_EQ(kArtifactCodecVersion, 6u);
  const auto suite = dfg::paperTable2Suite();
  auto pipe = materializeEverything(suite.front().graph, suite.front().allocation);
  for (Artifact a : allArtifacts()) {
    SCOPED_TRACE(artifactName(a));
    const std::vector<std::uint8_t> bytes = encodeArtifact(a, reboxed(*pipe, a));
    const std::string hex =
        common::Hasher().bytes(bytes.data(), bytes.size()).digest().toHex();
    const auto it = kPinned.find(a);
    ASSERT_NE(it, kPinned.end());
    EXPECT_EQ(hex, it->second);
  }
}

TEST(Serialize, RejectsGarbageWithoutCrashing) {
  std::vector<std::uint8_t> garbage(64);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 37));
  }
  for (Artifact a : allArtifacts()) {
    SCOPED_TRACE(artifactName(a));
    try {
      (void)decodeArtifact(a, garbage.data(), garbage.size());
      // Some kinds may legitimately decode 64 arbitrary bytes; the contract
      // is only "no crash, no UB", which reaching this line satisfies.
    } catch (const Error&) {
      // Expected for nearly all kinds.
    }
  }
  // Every truncation and every one-byte flip of every valid blob must throw
  // tauhls::Error or decode: any other exception escapes parallelFor and
  // fails the test, and a crash kills it.  The decodes fan out on the global
  // pool; each is independent of the others.
  const auto suite = dfg::paperTable2Suite();
  auto pipe = materializeEverything(suite.front().graph, suite.front().allocation);
  for (Artifact a : allArtifacts()) {
    SCOPED_TRACE(artifactName(a));
    const std::vector<std::uint8_t> bytes = encodeArtifact(a, reboxed(*pipe, a));
    std::vector<char> truncationRejected(bytes.size(), 0);
    common::parallelFor(2 * bytes.size(), [&](std::size_t task) {
      const std::size_t at = task / 2;
      try {
        if (task % 2 == 0) {
          (void)decodeArtifact(a, bytes.data(), at);
        } else {
          std::vector<std::uint8_t> flipped = bytes;
          flipped[at] ^= 0xFF;
          (void)decodeArtifact(a, flipped.data(), flipped.size());
        }
      } catch (const Error&) {
        if (task % 2 == 0) truncationRejected[at] = 1;
      }
    });
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_TRUE(truncationRejected[len]) << "truncated to " << len << " bytes";
    }
  }
}

TEST(Store, PutLoadRoundTripAndPersistence) {
  const fs::path dir = freshDir("roundtrip");
  const common::Fingerprint key{0x1234, 0x5678};
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 255, 0, 128};
  {
    ArtifactStore store({dir, 0});
    store.put(key, 7, payload);
    EXPECT_TRUE(store.contains(key));
    const auto back = store.load(key, 7);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
    EXPECT_EQ(store.stats().blobs, 1u);
  }
  {
    // A second handle (fresh process in spirit) sees the same blob.
    ArtifactStore store({dir, 0});
    EXPECT_EQ(store.stats().blobs, 1u);
    const auto back = store.load(key, 7);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
    // Wrong kind tag is a miss, and the mismatched blob is dropped.
    EXPECT_FALSE(store.load(key, 8).has_value());
    EXPECT_FALSE(store.contains(key));
    EXPECT_EQ(store.stats().corrupt, 1u);
  }
}

TEST(Store, CorruptedAndTruncatedBlobsAreMisses) {
  const fs::path dir = freshDir("corrupt");
  ArtifactStore store({dir, 0});
  const common::Fingerprint keyA{1, 1};
  const common::Fingerprint keyB{2, 2};
  const std::vector<std::uint8_t> payload(300, 42);
  store.put(keyA, 3, payload);
  store.put(keyB, 3, payload);

  // Flip one payload byte of A; truncate B to half.
  const fs::path blobA = dir / "blobs" / (keyA.toHex() + ".blob");
  const fs::path blobB = dir / "blobs" / (keyB.toHex() + ".blob");
  {
    std::fstream f(blobA, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('\x7f');
  }
  fs::resize_file(blobB, fs::file_size(blobB) / 2);

  EXPECT_FALSE(store.load(keyA, 3).has_value());
  EXPECT_FALSE(store.load(keyB, 3).has_value());
  EXPECT_EQ(store.stats().corrupt, 2u);
  // Both were unlinked so the next run rewrites them cleanly.
  EXPECT_FALSE(fs::exists(blobA));
  EXPECT_FALSE(fs::exists(blobB));
  // And a re-put works.
  store.put(keyA, 3, payload);
  EXPECT_TRUE(store.load(keyA, 3).has_value());
}

TEST(Store, LruSizeBoundEvictsOldestFirst) {
  const fs::path dir = freshDir("lru");
  const std::vector<std::uint8_t> payload(1000, 9);
  // Header is 40 bytes -> each blob is 1040; bound to ~3 blobs.
  ArtifactStore store({dir, 3 * 1040 + 100});
  const common::Fingerprint k1{1, 0}, k2{2, 0}, k3{3, 0}, k4{4, 0};
  store.put(k1, 0, payload);
  store.put(k2, 0, payload);
  store.put(k3, 0, payload);
  // Touch k1 so k2 becomes the LRU entry.
  EXPECT_TRUE(store.load(k1, 0).has_value());
  store.put(k4, 0, payload);
  EXPECT_TRUE(store.contains(k1));
  EXPECT_FALSE(store.contains(k2));  // evicted (least recently used)
  EXPECT_TRUE(store.contains(k3));
  EXPECT_TRUE(store.contains(k4));
  const StoreStats s = store.stats();
  EXPECT_EQ(s.evictedBlobs, 1u);
  EXPECT_LE(s.bytes, s.maxBytes);
}

TEST(Store, GcShrinksToTargetAndZeroEmpties) {
  const fs::path dir = freshDir("gc");
  const std::vector<std::uint8_t> payload(500, 1);
  {
    ArtifactStore store({dir, 0});
    for (std::uint64_t i = 1; i <= 10; ++i) {
      store.put({i, i}, 0, payload);
    }
    EXPECT_EQ(store.stats().blobs, 10u);
    const std::uint64_t evicted = store.gc(3 * (500 + 40));
    EXPECT_GT(evicted, 0u);
    EXPECT_LE(store.stats().bytes, 3u * 540u);
    EXPECT_EQ(store.stats().blobs, 3u);
  }
  {
    // gc(0) through a fresh handle (exercises the index reload too).
    ArtifactStore store({dir, 0});
    EXPECT_EQ(store.stats().blobs, 3u);
    store.gc(0);
    EXPECT_EQ(store.stats().blobs, 0u);
    EXPECT_EQ(store.stats().bytes, 0u);
  }
}

TEST(Store, IndexIsAdvisoryAndRebuilds) {
  const fs::path dir = freshDir("index");
  const common::Fingerprint key{77, 88};
  const std::vector<std::uint8_t> payload(64, 7);
  {
    ArtifactStore store({dir, 0});
    store.put(key, 1, payload);
  }
  // Corrupt the index outright; the store must rescan blobs/ and carry on.
  {
    std::ofstream out(dir / "index.txt", std::ios::trunc);
    out << "not an index at all\n";
  }
  {
    ArtifactStore store({dir, 0});
    EXPECT_EQ(store.stats().blobs, 1u);
    EXPECT_EQ(store.load(key, 1).value(), payload);
  }
  // Remove it entirely; same outcome.
  fs::remove(dir / "index.txt");
  {
    ArtifactStore store({dir, 0});
    EXPECT_EQ(store.stats().blobs, 1u);
    EXPECT_EQ(store.load(key, 1).value(), payload);
  }
}

TEST(Store, ConcurrentWritersAndReaders) {
  const fs::path dir = freshDir("concurrent");
  ArtifactStore store({dir, 0});
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 12;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        // Half the keys are shared across all threads (write races on one
        // path), half are private.
        const std::uint64_t hi = (i % 2 == 0) ? 0xABC : 0x1000 + static_cast<std::uint64_t>(t);
        const common::Fingerprint key{hi, static_cast<std::uint64_t>(i)};
        std::vector<std::uint8_t> payload(128, static_cast<std::uint8_t>(i));
        store.put(key, 2, payload);
        const auto back = store.load(key, 2);
        ASSERT_TRUE(back.has_value());
        ASSERT_EQ(*back, payload);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.stats().corrupt, 0u);
  // Shared keys dedup: 6 shared + 8*6 private.
  EXPECT_EQ(store.stats().blobs, 6u + 8u * 6u);
}

TEST(Store, CrossProcessPipelineReuseIsBitIdentical) {
  const fs::path dir = freshDir("crossprocess");
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.front();

  // "Process 1": cold run against an empty store.
  auto cache1 = std::make_shared<ArtifactCache>();
  cache1->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  auto pipe1 = materializeEverything(b.graph, b.allocation, cache1);
  const CacheStats first = cache1->stats();
  EXPECT_EQ(first.hits, 0u);
  EXPECT_GT(first.misses, 0u);

  // "Process 2": a fresh memory cache and a fresh store handle on the same
  // directory -- exactly what a second CLI invocation sees.
  auto cache2 = std::make_shared<ArtifactCache>();
  cache2->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  auto pipe2 = materializeEverything(b.graph, b.allocation, cache2);
  const CacheStats second = cache2->stats();
  EXPECT_EQ(second.misses, 0u) << "warm run recomputed a pass";
  EXPECT_EQ(second.diskHits, second.hits) << "warm run must be disk-served";
  EXPECT_EQ(second.hits, first.misses);

  // The disk-served artifacts reproduce the cold run bit for bit.
  EXPECT_EQ(pipe1->get<std::string>(Artifact::Rtl),
            pipe2->get<std::string>(Artifact::Rtl));
  EXPECT_EQ(fsm::toKiss2(pipe1->get<fsm::Fsm>(Artifact::CentSync)),
            fsm::toKiss2(pipe2->get<fsm::Fsm>(Artifact::CentSync)));
  EXPECT_EQ(
      verify::renderText(pipe1->get<verify::Report>(Artifact::Diagnostics)),
      verify::renderText(pipe2->get<verify::Report>(Artifact::Diagnostics)));
  EXPECT_EQ(
      verify::renderText(pipe1->get<verify::Report>(Artifact::Timing)),
      verify::renderText(pipe2->get<verify::Report>(Artifact::Timing)));
  // FlowResult-level identity through the public JSON rendering.
  FlowConfig cfg;
  cfg.allocation = b.allocation;
  cfg.buildCentFsm = true;
  FlowPipeline r1(b.graph, cfg, cache1);
  FlowPipeline r2(b.graph, cfg, cache2);
  EXPECT_EQ(toJson(r1.run()), toJson(r2.run()));

  // Every warm trace event carries the disk tier.
  for (const PassTraceEvent& ev : pipe2->traceEvents()) {
    EXPECT_EQ(ev.tier, CacheTier::Disk) << ev.pass;
    EXPECT_TRUE(ev.cacheHit);
  }
}

TEST(Store, CorruptBlobFallsBackToRecompute) {
  const fs::path dir = freshDir("fallback");
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.front();
  FlowConfig cfg;
  cfg.allocation = b.allocation;
  cfg.synthesizeArea = false;

  auto cache1 = std::make_shared<ArtifactCache>();
  cache1->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  FlowPipeline pipe1(b.graph, cfg, cache1);
  const FlowResult cold = pipe1.run();

  // Vandalize every blob: overwrite a byte in the middle of each file.
  for (const auto& file : fs::directory_iterator(dir / "blobs")) {
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(file.path()) / 2));
    f.put('\x55');
  }

  auto cache2 = std::make_shared<ArtifactCache>();
  cache2->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  FlowPipeline pipe2(b.graph, cfg, cache2);
  const FlowResult warm = pipe2.run();  // must not crash
  const CacheStats stats = cache2->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(toJson(cold), toJson(warm));
  // The recompute healed the store: a third run is disk-served again.
  auto cache3 = std::make_shared<ArtifactCache>();
  cache3->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  FlowPipeline pipe3(b.graph, cfg, cache3);
  pipe3.run();
  EXPECT_EQ(cache3->stats().misses, 0u);
}

TEST(Store, StoreJsonReportIsSchemaVersioned) {
  const fs::path dir = freshDir("json");
  ArtifactStore store({dir, 1 << 20});
  store.put({5, 6}, 1, std::vector<std::uint8_t>(10, 1));
  const std::string json = renderStoreJson(store.stats());
  EXPECT_NE(json.find("\"schema\":\"tauhls-store\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"blobs\":1"), std::string::npos);
  EXPECT_NE(json.find("\"maxBytes\":1048576"), std::string::npos);
}

}  // namespace
}  // namespace tauhls
