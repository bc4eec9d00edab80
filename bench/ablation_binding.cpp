// Ablation D -- binding strategy: left-edge binding from the list schedule
// (critical-path or mobility priority) versus the paper's §3
// clique-cover/schedule-arc method, compared on
// latency (best / avg P=0.5 / worst) and inserted arcs.

#include "bench_util.hpp"
#include "sim/stats.hpp"

int main() {
  using namespace tauhls;
  bench::banner("Ablation D -- left-edge binding vs clique-cover scheduling");


  core::TextTable t({"DFG", "strategy", "sched arcs", "best cyc",
                     "avg cyc P=.5", "worst cyc"});
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    struct Variant {
      const char* label;
      sched::BindingStrategy strategy;
      sched::PriorityRule priority;
    };
    for (const Variant& v :
         {Variant{"left-edge/cpath", sched::BindingStrategy::LeftEdge,
                  sched::PriorityRule::CriticalPath},
          Variant{"left-edge/mobility", sched::BindingStrategy::LeftEdge,
                  sched::PriorityRule::Mobility},
          Variant{"clique-cover", sched::BindingStrategy::CliqueCover,
                  sched::PriorityRule::CriticalPath}}) {
      auto s = sched::scheduleAndBind(b.graph, b.allocation, tau::paperLibrary(),
                                      v.strategy, v.priority);
      t.addRow({b.name, v.label, std::to_string(s.graph.scheduleArcs().size()),
                std::to_string(
                    sim::bestCaseCycles(s, sim::ControlStyle::Distributed)),
                bench::fixed(sim::averageCyclesExact(
                                 s, sim::ControlStyle::Distributed, 0.5),
                             2),
                std::to_string(
                    sim::worstCaseCycles(s, sim::ControlStyle::Distributed))});
    }
  }
  std::cout << t.toString();
  std::cout << "\nShape: both strategies respect the allocation; the clique "
               "method inserts only the arcs needed to reach the unit count "
               "(minimizing worst-case path growth), the left-edge binding "
               "serializes whatever the list schedule packed together.  On "
               "these benchmarks they land within a cycle of each other.\n";
  return 0;
}
