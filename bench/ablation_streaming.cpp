// Ablation E -- streaming throughput.  The wrapped controllers (S_{n+1} =
// S_0) pipeline consecutive DFG iterations; this bench measures the average
// initiation interval over 64 iterations against the single-iteration
// latency, for both P = 0.9 and P = 0.5, on every Table 2 benchmark.
// (Upper-bound analysis; see sim/streaming.hpp for the latch-renewal caveat.)

#include "bench_util.hpp"
#include "sim/stats.hpp"
#include "sim/streaming.hpp"

int main() {
  using namespace tauhls;
  bench::banner("Ablation E -- streaming: initiation interval vs latency");


  core::TextTable t({"DFG", "P", "latency (cyc)", "II (cyc)", "overlap gain"});
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    auto s = sched::scheduleAndBind(b.graph, b.allocation, tau::paperLibrary());
    for (double p : {0.9, 0.5}) {
      const double latency =
          sim::averageCyclesExact(s, sim::ControlStyle::Distributed, p);
      const sim::StreamingResult r = sim::streamingMakespanRandom(s, 64, p, 7);
      t.addRow({b.name, bench::fixed(p, 1), bench::fixed(latency, 2),
                bench::fixed(r.avgInitiationInterval, 2),
                bench::fixed(
                    (latency - r.avgInitiationInterval) / latency * 100.0, 2) +
                    "%"});
    }
  }
  std::cout << t.toString();
  std::cout << "\nShape: benchmarks whose units are unevenly loaded (FIR/IIR "
               "adder chains) overlap iterations substantially; balanced "
               "designs (AR-lattice) gain less.\n";
  return 0;
}
