#include "verify/verify.hpp"

#include <vector>

#include "common/strings.hpp"
#include "netlist/build.hpp"
#include "rtl/verilog.hpp"
#include "verify/dfg_lint.hpp"
#include "verify/fsm_check.hpp"
#include "verify/netlist_check.hpp"
#include "verify/sched_lint.hpp"
#include "vsim/parser.hpp"

namespace tauhls::verify {

Report verifyFlow(const sched::ScheduledDfg& s,
                  const fsm::DistributedControlUnit& dcu,
                  const VerifyOptions& options) {
  Report report;

  lintDfg(s.graph, report);
  lintSchedule(s, options.requestedAllocation, report);
  lintRegisterAllocation(s, report);

  for (const fsm::UnitController& ctl : dcu.controllers) {
    checkFsm(ctl.fsm, report);
  }
  if (options.centSync != nullptr) checkFsm(*options.centSync, report);

  if (options.modelCheck) {
    ModelCheckOptions mc;
    mc.maxStates = options.modelCheckMaxStates;
    if (options.centSync != nullptr) {
      modelCheckControllers(dcu, s, *options.centSync, report, mc);
    } else {
      modelCheckDistributed(dcu, s, report, mc);
    }
  }

  std::vector<netlist::ControllerNetlist> netlists;
  for (const fsm::UnitController& ctl : dcu.controllers) {
    netlists.push_back(netlist::buildControllerNetlist(ctl.fsm));
    lintNetlist(netlists.back().net, report);
  }
  checkControlLoops(dcu, netlists, s.graph.name(), report);

  const std::string package = rtl::emitPackage(
      dcu, "tauhls_" + identifierChars(s.graph.name()) + "_ctrl");
  lintRtl(vsim::parseDesign(package), report);

  return report;
}

}  // namespace tauhls::verify
