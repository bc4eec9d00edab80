// Extension bench: scaling beyond the paper's six DFGs.
//
// Runs the full flow on progressively larger kernels (FIR sweep, EWF, FFT,
// 8-point DCT) and reports latency enhancement and distributed-control cost
// (controllers / FFs incl. completion latches) -- how the paper's scheme
// behaves as designs grow past its original evaluation.

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "fsm/distributed.hpp"
#include "fsm/signal_opt.hpp"

int main() {
  using namespace tauhls;
  using RC = dfg::ResourceClass;
  bench::banner("Extension -- scaling study on larger kernels");

  struct Entry {
    dfg::Dfg graph;
    sched::Allocation alloc;
  };
  std::vector<Entry> entries;
  entries.push_back({dfg::fir(4), {{RC::Multiplier, 2}, {RC::Adder, 1}}});
  entries.push_back({dfg::fir(8), {{RC::Multiplier, 2}, {RC::Adder, 1}}});
  entries.push_back({dfg::fir(12), {{RC::Multiplier, 3}, {RC::Adder, 2}}});
  entries.push_back({dfg::ewf(), {{RC::Multiplier, 2}, {RC::Adder, 3}}});
  entries.push_back({dfg::fft(3),
                     {{RC::Multiplier, 3}, {RC::Adder, 2}, {RC::Subtractor, 2}}});
  entries.push_back({dfg::dct8(),
                     {{RC::Multiplier, 3}, {RC::Adder, 2}, {RC::Subtractor, 2}}});


  core::TextTable t({"DFG", "ops", "alloc", "LT_TAU P=.7 (ns)",
                     "LT_DIST P=.7 (ns)", "enh", "ctrls", "FFs+latches"});
  // The six kernels are independent design points; fan them out over the
  // pool and print in entry order.
  std::vector<core::FlowResult> results(entries.size());
  common::parallelFor(entries.size(), [&](std::size_t i) {
    core::FlowConfig cfg;
    cfg.allocation = entries[i].alloc;
    cfg.ps = {0.7};
    cfg.synthesizeArea = false;
    results[i] = core::runFlow(entries[i].graph, cfg);
  });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Entry& e = entries[i];
    const core::FlowResult& r = results[i];
    int ffs = r.distributed.totalFlipFlops() +
              r.distributed.completionLatchCount();
    t.addRow({e.graph.name(), std::to_string(e.graph.numOps()),
              core::formatAllocation(r.scheduled),
              bench::fixed(r.latency.tau.averageNs[0], 1),
              bench::fixed(r.latency.dist.averageNs[0], 1),
              bench::fixed(r.latency.enhancementPercent[0], 1) + "%",
              std::to_string(r.distributed.controllers.size()),
              std::to_string(ffs)});
  }
  std::cout << t.toString();
  std::cout << "\nShape: enhancement keeps growing with depth and multiplier "
               "pressure; controller cost grows with the *allocation*, not "
               "the op count -- the property that distinguishes the paper's "
               "per-unit distribution from per-operation control.\n";
  return 0;
}
