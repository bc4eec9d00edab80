#include "verify/timing_check.hpp"

#include <sstream>

#include "netlist/build.hpp"

namespace tauhls::verify {

namespace {

std::string fmtNs(double v) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

void checkControllerTiming(const fsm::Fsm& fsm, double clockNs, Report& report,
                           const TimingOptions& options) {
  const netlist::ControllerNetlist cn =
      netlist::buildControllerNetlist(fsm, options.style);
  const netlist::StaResult sta =
      netlist::runSta(cn.net, clockNs, options.marginNs);
  const std::string artifact = "fsm " + fsm.name();
  const std::string path = netlist::formatWorstPath(sta);

  if (sta.worstSlackNs < 0.0) {
    report.add("TIM001", artifact, sta.worstOutput,
               "negative slack " + fmtNs(sta.worstSlackNs) + " ns (arrival " +
                   fmtNs(sta.worstArrivalNs) + " ns vs CC_TAU " +
                   fmtNs(clockNs) + " ns - margin " + fmtNs(options.marginNs) +
                   " ns) via " + path);
  } else if (sta.worstSlackNs < 0.1 * clockNs) {
    report.add("TIM002", artifact, sta.worstOutput,
               "tight slack " + fmtNs(sta.worstSlackNs) + " ns (< 10% of " +
                   fmtNs(clockNs) + " ns clock) via " + path);
  }
  report.add("TIM003", artifact, sta.worstOutput,
             "worst arrival " + fmtNs(sta.worstArrivalNs) + " ns, slack " +
                 fmtNs(sta.worstSlackNs) + " ns at CC_TAU " + fmtNs(clockNs) +
                 " ns via " + path);
}

Report checkTiming(const fsm::DistributedControlUnit& dcu, double clockNs,
                   const TimingOptions& options) {
  Report report;
  for (const fsm::UnitController& c : dcu.controllers) {
    checkControllerTiming(c.fsm, clockNs, report, options);
  }
  return report;
}

}  // namespace tauhls::verify
