// Structural checks over the gate-level netlist IR and the emitted RTL
// (rules NET001-NET008), plus the cross-controller combinational-loop check.
//
// Three layers, three levels of abstraction:
//
//   lintNetlist      gate IR (netlist::Netlist): fanin arities, dangling
//                    gates, unused inputs.  The IR is acyclic by construction,
//                    so the cycle/driver rules act as defensive checks.
//
//   lintRtl          parsed emitted Verilog (vsim::Design): per-module driver
//                    maps (undriven / multiply-driven), intra-module
//                    combinational cycles (instances treated as opaque --
//                    cross-instance paths are checked functionally, see
//                    below), width/constant-fit mismatches, unknown
//                    module/port references, unread inputs.
//
//   checkControlLoops  the cross-controller feedback structure.  A consumer's
//                    guard reads the OR of the sticky latch and the *live*
//                    CCO pulse, so there is a combinational path through every
//                    completion latch; a structural scan of the emitted top
//                    would flag a false loop through every CCO wire.  The true
//                    criterion is functional: CCO_b may not functionally
//                    depend on CCO_a around a cycle.  Over each controller's
//                    netlist (netlist::buildControllerNetlist) the
//                    functional support of every CCO output is computed by
//                    cofactor comparison over the structural support; only a
//                    cycle in that dependence graph is a real oscillation
//                    hazard (NET001).
#pragma once

#include <string>
#include <vector>

#include "fsm/distributed.hpp"
#include "netlist/build.hpp"
#include "netlist/netlist.hpp"
#include "verify/diagnostic.hpp"
#include "vsim/ast.hpp"

namespace tauhls::verify {

/// Gate-IR structural checks (NET006/NET007/NET008 + defensive NET001).
void lintNetlist(const netlist::Netlist& net, Report& report);

/// Parse-level checks over every module of an emitted design (NET001-NET008).
void lintRtl(const vsim::Design& design, Report& report);

/// Functional cross-controller combinational-loop check (NET001) over
/// `netlists`, the controller netlists of `dcu` in controller order (built
/// once by the caller, who also lints them).  `name` labels the diagnostics
/// (typically the graph name).
void checkControlLoops(const fsm::DistributedControlUnit& dcu,
                       const std::vector<netlist::ControllerNetlist>& netlists,
                       const std::string& name, Report& report);

}  // namespace tauhls::verify
