// Extension bench (paper §6 future work): multi-level VCAUs.
//
// A three-level telescopic multiplier (10/20/30 ns at a 10 ns clock)
// generalizes the paper's two-level TAU.  We sweep level distributions and
// compare, per benchmark:
//   * DIST vs CENT-SYNC under multi-level control (the paper's claim
//     carries over), and
//   * fine 3-level completion detection vs a coarse detector that can only
//     certify the first level (everything else waits the full 3 cycles) --
//     quantifying what finer telescoping buys.
#include <sstream>

#include "bench_util.hpp"
#include "vcau/stats.hpp"

int main() {
  using namespace tauhls;
  bench::banner("Extension -- multi-level VCAUs (generalized Algorithm 1)");

  tau::ResourceLibrary lib10;
  lib10.registerType(tau::telescopicUnit("tau_mult", dfg::ResourceClass::Multiplier,
                                         10, 20, 0.5));  // surrogate for scheduling
  lib10.registerType(tau::fixedUnit("adder", dfg::ResourceClass::Adder, 10));
  lib10.registerType(
      tau::fixedUnit("subtractor", dfg::ResourceClass::Subtractor, 10));


  const std::vector<std::vector<double>> pmfs = {
      {0.7, 0.2, 0.1}, {0.5, 0.3, 0.2}, {0.3, 0.4, 0.3}, {0.1, 0.3, 0.6}};

  core::TextTable t({"DFG", "level pmf", "DIST avg cyc", "SYNC avg cyc",
                     "enh", "coarse DIST", "fine-grain gain"});
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    auto s = sched::scheduleAndBind(b.graph, b.allocation, lib10);
    for (const auto& pmf : pmfs) {
      vcau::MultiLevelLibrary fine{{dfg::ResourceClass::Multiplier,
                                    vcau::multiLevelUnit(
                                        "tau3", dfg::ResourceClass::Multiplier,
                                        {10, 20, 30}, pmf)}};
      // Coarse detector: only level 0 is certified; levels 1 and 2 both run
      // to the 3-cycle worst case.
      vcau::MultiLevelLibrary coarse{{dfg::ResourceClass::Multiplier,
                                      vcau::multiLevelUnit(
                                          "tau3c", dfg::ResourceClass::Multiplier,
                                          {10, 20, 30},
                                          {pmf[0], 0.0, pmf[1] + pmf[2]})}};
      const double dist =
          vcau::averageCycles(s, fine, vcau::ControlStyle::Distributed);
      const double sync =
          vcau::averageCycles(s, fine, vcau::ControlStyle::CentSync);
      const double coarseDist =
          vcau::averageCycles(s, coarse, vcau::ControlStyle::Distributed);
      std::ostringstream pmfText;
      pmfText << pmf[0] << "/" << pmf[1] << "/" << pmf[2];
      t.addRow({b.name, pmfText.str(), bench::fixed(dist, 2),
                bench::fixed(sync, 2),
                bench::fixed((sync - dist) / sync * 100.0, 2) + "%",
                bench::fixed(coarseDist, 2),
                bench::fixed((coarseDist - dist) / coarseDist * 100.0, 2) +
                    "%"});
    }
  }
  std::cout << t.toString();
  std::cout << "\nShape: the distributed win survives the generalization "
               "(DIST <= SYNC for every pmf); finer completion detection "
               "pays most when the middle level is populated.\n";
  return 0;
}
