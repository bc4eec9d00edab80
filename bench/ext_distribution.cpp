// Extension bench: full latency distributions (Table 2 reports only means).
// Exact pmf over all 2^n operand classes; reports mean / p50 / p95 / worst
// for both control styles -- what a real-time budget would look at.
#include <sstream>

#include "bench_util.hpp"
#include "sim/distribution.hpp"

int main() {
  using namespace tauhls;
  bench::banner("Extension -- exact latency distributions at P = 0.7");


  core::TextTable t({"DFG", "style", "mean cyc", "p50", "p95", "worst",
                     "pmf support"});
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    auto s = sched::scheduleAndBind(b.graph, b.allocation, tau::paperLibrary());
    if (sim::tauOps(s).size() > 20) continue;
    for (auto [label, style] :
         {std::pair{"DIST", sim::ControlStyle::Distributed},
          std::pair{"SYNC", sim::ControlStyle::CentSync}}) {
      const sim::LatencyDistribution d =
          sim::latencyDistribution(s, style, 0.7);
      std::ostringstream support;
      for (const auto& [cycles, prob] : d.pmf) {
        support << cycles << ":" << bench::fixed(prob, 2) << " ";
      }
      t.addRow({b.name, label, bench::fixed(d.mean(), 2),
                std::to_string(d.quantile(0.5)),
                std::to_string(d.quantile(0.95)), std::to_string(d.maxCycles()),
                support.str()});
    }
  }
  std::cout << t.toString();
  std::cout << "\nShape: the distributed controller shifts the whole "
               "distribution left (it stochastically dominates the "
               "synchronized baseline -- tested property), tightening p95 "
               "budgets, not just means.\n";
  return 0;
}
