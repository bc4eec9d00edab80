// Extension bench: allocation design-space exploration (the §6 "resource
// allocation" piece of the envisioned HLS tool).  Sweeps unit counts for
// Diff. and AR-lattice, prints every point with its latency / implementation
// cost, and marks the Pareto front.
#include <sstream>

#include "bench_util.hpp"
#include "explore/pareto.hpp"

int main() {
  using namespace tauhls;
  bench::banner("Extension -- allocation Pareto exploration (P = 0.7)");


  for (auto [name, graph] : {std::pair{"Diff.", dfg::diffeq()},
                             std::pair{"AR-lattice", dfg::arLattice()}}) {
    explore::ExploreOptions opt;
    opt.maxUnitsPerClass = 4;
    const auto points = explore::explore(graph, opt);
    std::cout << "--- " << name << " (" << points.size()
              << " design points) ---\n";
    core::TextTable t({"allocation", "avg latency (ns)", "ctrl area",
                       "regs", "units", "cost", "Pareto"});
    for (const explore::DesignPoint& p : points) {
      std::ostringstream alloc;
      bool first = true;
      for (const auto& [cls, count] : p.allocation) {
        alloc << (first ? "" : ",") << dfg::resourceClassName(cls) << "="
              << count;
        first = false;
      }
      t.addRow({alloc.str(), bench::fixed(p.averageLatencyNs, 1),
                std::to_string(p.controllerArea),
                std::to_string(p.datapathRegisters),
                std::to_string(p.unitCount),
                std::to_string(p.cost(explore::kUnitWeightArea)),
                p.paretoOptimal ? "*" : ""});
    }
    std::cout << t.toString() << "\n";
  }
  std::cout << "Shape: the paper's Table 1/2 allocations sit on (or next to) "
               "the Pareto front -- more units buy latency until the chain "
               "cover saturates, after which only cost grows.\n";
  return 0;
}
