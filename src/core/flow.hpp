// The top-level synthesis flow -- the library's primary public entry point.
//
//   dfg::Dfg graph = dfg::diffeq();
//   core::FlowConfig cfg;
//   cfg.allocation = {{dfg::ResourceClass::Multiplier, 2},
//                     {dfg::ResourceClass::Adder, 1},
//                     {dfg::ResourceClass::Subtractor, 1}};
//   core::FlowResult r = core::runFlow(graph, cfg);
//   std::cout << core::formatTable2Row("Diff.", r);   // paper-style report
//   std::string v = core::emitVerilog(r);             // synthesizable RTL
//
// The flow schedules and binds the DFG, derives the distributed controllers
// (Algorithm 1), builds the centralized baselines, synthesizes everything to
// the area model, and measures latency statistics.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/product.hpp"
#include "fsm/signal_opt.hpp"
#include "sched/scheduled_dfg.hpp"
#include "sim/stats.hpp"
#include "synth/area.hpp"
#include "verify/diagnostic.hpp"

namespace tauhls::core {

/// Which engine the verify stage uses for the controller model check
/// (MDL001-MDL008).
enum class ModelCheckMode : int {
  /// Bounded explicit-state product exploration; degrades to an MDL007
  /// warning past verifyMaxStates configurations.
  Explicit = 0,
  /// BMC + k-induction over an AIG transition relation (complete verdicts,
  /// no state bound; see verify/symbolic_check.hpp).
  Symbolic = 1,
  /// Explicit first; when it degrades to MDL007, rerun symbolically and
  /// replace the MDL007 warning with the symbolic verdicts.
  Auto = 2,
};

struct FlowConfig {
  sched::Allocation allocation;                     ///< units per class
  tau::ResourceLibrary library = tau::paperLibrary();
  sched::BindingStrategy strategy = sched::BindingStrategy::LeftEdge;
  bool optimizeSignals = true;                      ///< Fig. 7 signal pruning
  std::vector<double> ps = {0.9, 0.7, 0.5};         ///< Table 2 P sweep
  bool buildCentFsm = false;                        ///< explicit product (costly)
  std::size_t centFsmMaxStates = 200000;
  synth::EncodingStyle encoding = synth::EncodingStyle::Binary;
  bool synthesizeArea = true;                       ///< run the area model
  int mcSamples = 20000;                            ///< MC fallback (>24 TAU ops)
  /// Adaptive Monte-Carlo crossover of the latency pass (sim/stats.hpp):
  /// past the exact-enumeration cap, sampling doubles from mcSamples until
  /// the 95% CI half-width (cycles) reaches mcTargetHalfWidth or
  /// mcMaxSamples is spent.  Graphs under the cap are unaffected.
  int mcMaxSamples = 1 << 20;
  double mcTargetHalfWidth = 0.05;
  /// Run the static design-rule checker + controller model check over every
  /// artifact and throw on any error-severity diagnostic (src/verify/).
  bool verify = true;
  /// Product-configuration bound for the model check; past it the check
  /// degrades to an MDL007 warning instead of blocking the flow.
  std::size_t verifyMaxStates = 50000;
  /// Controller model-check engine (see ModelCheckMode).
  ModelCheckMode modelCheck = ModelCheckMode::Explicit;
  /// BMC depth / induction-k budget of the symbolic engine; open properties
  /// degrade to UNKNOWN verdicts rather than blocking the flow.
  int symbolicMaxDepth = 30;
  /// SAT conflict budget per symbolic query; exceeding it degrades the
  /// property to an UNKNOWN verdict, never a false claim.
  std::uint64_t symbolicMaxConflicts = 200000;
  /// STA margin (register setup + completion-signal arrival) subtracted from
  /// CC_TAU by the demand-only `timing` pass (TIM rules).
  double timingMarginNs = 2.0;
  /// SAT conflict budget per miter for the demand-only `equiv` pass; an
  /// exceeded budget degrades to an EQV005 warning, never a false claim.
  std::uint64_t equivMaxConflicts = 200000;
  /// Reset-depth search budget of the demand-only `xcheck` pass (XPR rules):
  /// the largest reset window tried and the post-release watch length.
  int xpropCycles = 16;
  /// 64-lane ternary words per X-propagation run (concrete power-on
  /// instances = words*64 - 1; word 0 lane 0 is the all-X proof lane).
  int xpropWords = 4;
  /// BMC depth / induction-k budget of the don't-care-soundness proof
  /// (DCS002); open proofs degrade to UNKNOWN verdicts.
  int dcsMaxDepth = 16;
  /// SAT conflict budget per don't-care-soundness query.
  std::uint64_t dcsMaxConflicts = 100000;
};

struct FlowResult {
  sched::ScheduledDfg scheduled;
  fsm::DistributedControlUnit distributed;          ///< post signal-opt
  fsm::SignalOptStats signalStats;
  fsm::Fsm centSync{"unset"};
  std::optional<fsm::Fsm> centFsm;                  ///< when buildCentFsm
  sim::LatencyComparison latency;
  std::optional<synth::DistributedAreaReport> distArea;
  std::optional<synth::AreaRow> centSyncArea;
  std::optional<synth::AreaRow> centFsmArea;
  verify::Report diagnostics;                       ///< when config.verify
};

/// Run the complete flow.  Throws tauhls::Error on any invalid input.
FlowResult runFlow(const dfg::Dfg& graph, const FlowConfig& config);

/// Emit the full Verilog package (latch primitive, controllers, top module)
/// for the flow's distributed control unit.
std::string emitVerilog(const FlowResult& result);

/// Verilog name of the top module for design `designName`: "dcu_" followed
/// by the name with every character outside [A-Za-z0-9_] replaced by '_',
/// so any design name (a file stem such as "a-b") gives a legal identifier.
std::string topModuleName(const std::string& designName);

}  // namespace tauhls::core
