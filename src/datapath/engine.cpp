#include "datapath/engine.hpp"

#include "common/error.hpp"
#include "sim/interp.hpp"

namespace tauhls::datapath {

using dfg::NodeId;

ExecutionResult execute(const fsm::DistributedControlUnit& dcu,
                        const sched::ScheduledDfg& s,
                        const std::vector<Value>& inputValues,
                        const BitLevelLibrary& lib, int maxCycles) {
  TAUHLS_CHECK(inputValues.size() == s.graph.numNodes(),
               "inputValues must be indexed by NodeId");
  ExecutionResult result;
  result.values.assign(s.graph.numNodes(), 0);
  result.realizedClasses.shortClass.assign(s.graph.numNodes(), true);

  const Value mask =
      lib.width() == 64 ? ~Value{0} : ((Value{1} << lib.width()) - 1);
  std::vector<bool> valueReady(s.graph.numNodes(), false);
  for (NodeId v : s.graph.inputIds()) {
    result.values[v] = inputValues[v] & mask;
    valueReady[v] = true;
  }

  // Fetch the operands of `op`; enforces the datapath safety property.
  auto fetch = [&](NodeId op) {
    const dfg::Node& node = s.graph.node(op);
    Value operands[2] = {0, 0};
    for (std::size_t i = 0; i < node.operands.size() && i < 2; ++i) {
      TAUHLS_CHECK(valueReady[node.operands[i]],
                   "operand fetched before its producer completed: " +
                       s.graph.node(node.operands[i]).name + " -> " +
                       node.name);
      operands[i] = result.values[node.operands[i]];
    }
    return std::pair<Value, Value>{operands[0], operands[1]};
  };

  // Datapath: each telescopic unit in a first execution cycle consults its
  // completion generator on the live operand values; an op whose result is
  // already latched has wrapped into iteration 2 and has no fresh operands.
  auto certify = [&](const fsm::UnitController& ctl,
                     const fsm::StateName& state) {
    if (!state.isExecute(0)) return false;
    const NodeId op = ctl.ops[state.index];
    if (valueReady[op]) return false;
    const auto [a, b] = fetch(op);
    const bool sd = lib.multiplierShortClass(a, b);
    result.realizedClasses.shortClass[op] = sd;
    return sd;
  };
  // On RE_i latch the computed value (once; later REs are iteration 2).
  auto latch = [&](const fsm::NetworkStep& step) {
    for (const std::vector<std::string>& fired : step.outputs) {
      for (const std::string& o : fired) {
        if (!o.starts_with("RE_")) continue;
        const NodeId op = s.graph.findByName(o.substr(3));
        TAUHLS_ASSERT(op != dfg::kNoNode, "RE for unknown op");
        if (valueReady[op]) continue;
        const auto [a, b] = fetch(op);
        result.values[op] = lib.compute(s.graph.node(op).kind, a, b);
        valueReady[op] = true;
      }
    }
  };
  result.latencyCycles =
      sim::runDistributed(dcu, s, certify, maxCycles, latch).latencyCycles;
  return result;
}

}  // namespace tauhls::datapath
