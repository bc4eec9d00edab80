// Regenerates the paper's Table 2: latency comparison between the expanded
// TAUBM FSMs (LT_TAU, synchronized) and the distributed FSMs (LT_DIST) for
// the six benchmark DFGs, at P = 0.9 / 0.7 / 0.5, plus best and worst cases.
// Averages are exact expectations over all 2^n SD/LD operand-class
// assignments (no sampling noise).  The paper's numbers are printed next to
// ours; benchmark DFG topologies are reconstructions (DESIGN.md §4), so
// absolute averages can differ a few percent while the win/loss shape holds.

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "core/pipeline.hpp"

int main() {
  using namespace tauhls;
  bench::banner("Table 2 -- latency: LT_TAU (sync TAUBM) vs LT_DIST (proposed)");
  std::cout << "SD(*)=15ns LD(*)=20ns FD(+,-)=15ns, CC_TAU=15ns; exact "
               "expectations over all operand classes ("
            << common::globalThreadPool().threadCount() << " threads).\n\n";


  core::TextTable table({"DFG", "Resources", "style", "best",
                         "avg P=.9", "avg P=.7", "avg P=.5", "worst",
                         "enh P=.9", "enh P=.7", "enh P=.5"});
  const auto suite = dfg::paperTable2Suite();
  // The six benchmark flows are independent; fan them out and print in order.
  // Each flow drives the pass pipeline against a shared artifact cache, so a
  // repeated invocation (or a follow-up report over the same suite) would be
  // served from cache; the summary line below makes the pass economy of the
  // sweep visible in harness logs.
  auto cache = std::make_shared<core::ArtifactCache>();
  std::vector<core::FlowResult> results(suite.size());
  common::parallelFor(suite.size(), [&](std::size_t i) {
    core::FlowConfig cfg;
    cfg.allocation = suite[i].allocation;
    cfg.synthesizeArea = false;
    core::FlowPipeline pipeline(suite[i].graph, cfg, cache);
    results[i] = pipeline.run();
  });
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const dfg::NamedBenchmark& b = suite[i];
    const core::FlowResult& r = results[i];

    const sim::LatencyRow& t = r.latency.tau;
    const sim::LatencyRow& d = r.latency.dist;
    table.addRow({b.name, core::formatAllocation(r.scheduled), "LT_TAU",
                  bench::fixed(t.bestNs, 1), bench::fixed(t.averageNs[0], 1),
                  bench::fixed(t.averageNs[1], 1),
                  bench::fixed(t.averageNs[2], 1), bench::fixed(t.worstNs, 1),
                  "", "", ""});
    table.addRow({"", "", "LT_DIST", bench::fixed(d.bestNs, 1),
                  bench::fixed(d.averageNs[0], 1),
                  bench::fixed(d.averageNs[1], 1),
                  bench::fixed(d.averageNs[2], 1), bench::fixed(d.worstNs, 1),
                  bench::fixed(r.latency.enhancementPercent[0], 1) + "%",
                  bench::fixed(r.latency.enhancementPercent[1], 1) + "%",
                  bench::fixed(r.latency.enhancementPercent[2], 1) + "%"});
    const bench::PaperTable2Ref& ref = bench::kPaperTable2[i];
    table.addRow({"", "(paper)", "LT_TAU", bench::fixed(ref.tauBest, 1),
                  bench::fixed(ref.tauP9, 1), bench::fixed(ref.tauP7, 1),
                  bench::fixed(ref.tauP5, 1), bench::fixed(ref.tauWorst, 1), "",
                  "", ""});
    table.addRow({"", "(paper)", "LT_DIST", bench::fixed(ref.distBest, 1),
                  bench::fixed(ref.distP9, 1), bench::fixed(ref.distP7, 1),
                  bench::fixed(ref.distP5, 1), bench::fixed(ref.distWorst, 1),
                  "", "", ""});
  }
  std::cout << table.toString();
  std::cout << "\nShape checks: LT_DIST <= LT_TAU everywhere; enhancement "
               "grows with DFG size and falling P until the worst case "
               "saturates.\n";
  // Identical for every thread count: the pass decomposition depends only on
  // the demand set, never on the pool size.
  std::cout << "Pipeline: " << core::formatCacheSummary(cache->stats())
            << ".\n";
  return 0;
}
