// Ablation J -- frontend cleanup (CSE + dead-op elimination) before the
// flow.  The HAL Diff. benchmark computes u*dx twice; Table 2's numbers keep
// the duplication (as the paper's sources did).  This bench quantifies what
// the paper-era flow leaves on the table: op counts and latencies with and
// without tidy().

#include "bench_util.hpp"
#include "dfg/transform.hpp"

int main() {
  using namespace tauhls;
  bench::banner("Ablation J -- DFG cleanup (CSE + DCE) before scheduling");


  core::TextTable t({"DFG", "ops", "ops (tidy)", "merged", "LT_DIST P=.7",
                     "LT_DIST P=.7 (tidy)", "gain"});
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    dfg::TransformReport report;
    dfg::Dfg optimized = dfg::tidy(b.graph, &report);

    core::FlowConfig cfg;
    cfg.allocation = b.allocation;
    cfg.ps = {0.7};
    cfg.synthesizeArea = false;
    const core::FlowResult before = core::runFlow(b.graph, cfg);
    const core::FlowResult after = core::runFlow(optimized, cfg);
    const double lt0 = before.latency.dist.averageNs[0];
    const double lt1 = after.latency.dist.averageNs[0];
    t.addRow({b.name, std::to_string(b.graph.numOps()),
              std::to_string(optimized.numOps()),
              std::to_string(report.mergedOps), bench::fixed(lt0, 1),
              bench::fixed(lt1, 1),
              bench::fixed((lt0 - lt1) / lt0 * 100.0, 1) + "%"});
  }
  std::cout << t.toString();
  std::cout << "\nShape: only Diff. carries redundancy (the duplicated u*dx "
               "multiplication); removing it trims one multiplier slot's "
               "work and the average latency accordingly.  The Table 2 "
               "reproduction keeps the original graphs.\n";
  return 0;
}
