// Ablation F -- operand model: the paper treats P as an i.i.d. Bernoulli
// parameter per operation (§2.3).  This bench checks that abstraction against
// the *value-accurate* datapath: the generated controllers drive a bit-level
// register-transfer datapath whose telescopic multipliers classify their
// actual operand values; the measured P and latency are compared with the
// Bernoulli model evaluated at that same measured P.
#include <random>

#include "bench_util.hpp"
#include "datapath/engine.hpp"
#include "fsm/distributed.hpp"
#include "sim/stats.hpp"

int main() {
  using namespace tauhls;
  bench::banner("Ablation F -- Bernoulli(P) abstraction vs value-accurate "
                "datapath execution");

  const int width = 16;
  const int trials = 300;

  core::TextTable t({"DFG", "measured P", "datapath avg cyc",
                     "Bernoulli avg cyc", "gap"});
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    auto s = sched::scheduleAndBind(b.graph, b.allocation, tau::paperLibrary());
    fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
    const datapath::BitLevelLibrary lib(width, 18);

    std::mt19937_64 rng(2026);
    long sdCount = 0;
    long tauCount = 0;
    double cycleSum = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<datapath::Value> inputs(s.graph.numNodes(), 0);
      for (dfg::NodeId v : s.graph.inputIds()) {
        const int len = std::uniform_int_distribution<int>(1, width)(rng);
        inputs[v] = rng() & ((datapath::Value{1} << len) - 1);
      }
      const datapath::ExecutionResult r = datapath::execute(dcu, s, inputs, lib);
      cycleSum += r.latencyCycles;
      for (dfg::NodeId v : sim::tauOps(s)) {
        ++tauCount;
        if (r.realizedClasses.isShort(v)) ++sdCount;
      }
    }
    const double measuredP = static_cast<double>(sdCount) / tauCount;
    const double datapathAvg = cycleSum / trials;
    const double bernoulliAvg =
        sim::averageCyclesExact(s, sim::ControlStyle::Distributed, measuredP);
    t.addRow({b.name, bench::fixed(measuredP, 2), bench::fixed(datapathAvg, 2),
              bench::fixed(bernoulliAvg, 2),
              bench::fixed(datapathAvg - bernoulliAvg, 2)});
  }
  std::cout << t.toString();
  std::cout << "\nShape: the Bernoulli abstraction tracks the value-accurate "
               "datapath closely; residual gaps come from operand "
               "correlation along dependency chains (products grow, pushing "
               "downstream multiplications toward LD), which the i.i.d. "
               "model cannot see.\n";
  return 0;
}
