// The benchmark's four workloads (README.md says why each exists).
//
// A workload is built once per process (its designs generated from the
// workload seed) and then either run through the library's user-facing entry
// points against one artifact cache per CLI invocation it models, or
// replayed call by call under the span recorder.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "json.hpp"
#include "spans.hpp"

namespace perfbench {

/// One named artifact cache (each backed by its own store directory) per
/// CLI invocation the workload models.
using CacheMap =
    std::map<std::string, std::shared_ptr<tauhls::core::ArtifactCache>>;

/// Outcome of one design of one run: its checked outputs, or the error that
/// stopped it.
struct DesignResult {
  bool ok = true;
  std::string error;
  Json outputs = Json::object();
  /// Properties or model checks with a complete verdict, of those checked
  /// (an MDL007 bound warning, an UNKNOWN property or an EQV005 budget
  /// overrun is undecided).
  std::uint64_t decided = 0;
  std::uint64_t checked = 0;
};

struct RunResult {
  std::map<std::string, DesignResult> designs;  ///< keyed by design id
  /// Pass wall time summed over the flat pipelines the run drove directly
  /// (FlowPipeline::traceEvents; explore and runHierFlow keep theirs).
  std::map<std::string, double> passMs;
  std::uint64_t explorePoints = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Caches the run needs, one per modelled CLI invocation.
  virtual std::vector<std::string> cacheNames() const { return {"main"}; }

  /// Run the workload through the user-facing entry points.
  virtual RunResult run(const CacheMap& caches) = 0;

  /// Replay the same calls in flow order, one span per public call.
  virtual void replay(Tracer& tracer) = 0;
};

/// Build a workload (generating its designs from `seed`); throws on an
/// unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// Per-layer metrics folded from a replay's spans (names as in
/// BENCHMARK.json, e.g. "synth.ms", "verify.dcs_max_design_ms").
std::map<std::string, double> layerMetrics(const Tracer& tracer);

}  // namespace perfbench
