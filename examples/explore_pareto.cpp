// Design-space exploration demo: sweep multiplier/adder allocations for a
// 12-tap FIR and print the latency/cost Pareto front.
//
//   $ ./explore_pareto
#include <iomanip>
#include <iostream>
#include <sstream>

#include "core/report.hpp"
#include "dfg/benchmarks.hpp"
#include "explore/pareto.hpp"

int main() {
  using namespace tauhls;
  const dfg::Dfg g = dfg::fir(12);

  explore::ExploreOptions opt;
  opt.maxUnitsPerClass = 4;
  opt.p = 0.7;
  const auto points = explore::explore(g, opt);

  std::cout << "=== fir12: " << points.size()
            << " allocations swept (P = 0.7) ===\n\n";
  core::TextTable t({"mult", "add", "latency (ns)", "cost", "Pareto"});
  for (const explore::DesignPoint& p : points) {
    std::ostringstream lat;
    lat << std::fixed << std::setprecision(1) << p.averageLatencyNs;
    t.addRow({std::to_string(p.allocation.at(dfg::ResourceClass::Multiplier)),
              std::to_string(p.allocation.at(dfg::ResourceClass::Adder)),
              lat.str(), std::to_string(p.cost(explore::kUnitWeightArea)),
              p.paretoOptimal ? "*" : ""});
  }
  std::cout << t.toString();
  std::cout << "\nPick a starred row: everything else is dominated (slower "
               "AND more expensive).\n";
  return 0;
}
