#include "core/flow.hpp"

#include "common/strings.hpp"
#include "core/pipeline.hpp"
#include "rtl/verilog.hpp"

namespace tauhls::core {

// runFlow is a façade over the declarative pass pipeline (core/pipeline.hpp):
// the config is validated up front, the pipeline computes exactly the
// artifacts the config implies (ready passes run concurrently on the global
// pool), and the verification gate throws before the product/area stages
// exactly as the pre-pipeline monolithic flow did.  Results are bit-identical
// to that flow for every config (tests/test_pipeline.cpp).  Sweep callers
// that want cross-run artifact reuse construct FlowPipeline directly with a
// shared ArtifactCache.
FlowResult runFlow(const dfg::Dfg& graph, const FlowConfig& config) {
  FlowPipeline pipeline(graph, config);
  return pipeline.run();
}

std::string emitVerilog(const FlowResult& result) {
  return rtl::emitPackage(result.distributed,
                          topModuleName(result.scheduled.graph.name()));
}

std::string topModuleName(const std::string& designName) {
  return "dcu_" + identifierChars(designName);
}

}  // namespace tauhls::core
