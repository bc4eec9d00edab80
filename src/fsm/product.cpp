#include "fsm/product.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <sstream>

#include "common/error.hpp"
#include "fsm/network.hpp"

namespace tauhls::fsm {

namespace {

/// "<state>_<state>..." then "+<controller>:<signal>" per held latch.
std::string configName(const DistributedControlUnit& dcu,
                       const NetworkConfig& config) {
  std::ostringstream os;
  for (std::size_t c = 0; c < config.states.size(); ++c) {
    if (c != 0) os << "_";
    os << dcu.controllers[c].fsm.stateName(config.states[c]);
  }
  for (std::size_t c = 0; c < config.latches.size(); ++c) {
    for (const std::string& sig : config.latches[c]) {
      os << "+" << c << ":" << sig;
    }
  }
  return os.str();
}

}  // namespace

Fsm buildProduct(const DistributedControlUnit& dcu,
                 const ProductOptions& options, ProductInfo* info) {
  TAUHLS_CHECK(!dcu.controllers.empty(), "product of zero controllers");
  if (info != nullptr) info->controllerStates.clear();
  Fsm product("CENT_FSM");
  for (const std::string& in : dcu.externalInputs) product.addInput(in);

  for (const UnitController& c : dcu.controllers) {
    for (const std::string& out : c.fsm.outputs()) {
      if (options.hideInternalSignals && dcu.producerOf.contains(out)) continue;
      product.addOutput(out);
    }
  }

  std::map<NetworkConfig, int> stateIds;
  std::queue<NetworkConfig> frontier;
  auto intern = [&](const NetworkConfig& cfg) {
    auto it = stateIds.find(cfg);
    if (it != stateIds.end()) return it->second;
    TAUHLS_CHECK(stateIds.size() < options.maxStates,
                 "product state bound exceeded (" +
                     std::to_string(options.maxStates) + ")");
    const int id = product.addState(configName(dcu, cfg));
    if (info != nullptr) info->controllerStates.push_back(cfg.states);
    stateIds.emplace(cfg, id);
    frontier.push(cfg);
    return id;
  };
  intern(initialConfig(dcu));
  product.setInitial(0);

  const std::size_t numExt = dcu.externalInputs.size();
  while (!frontier.empty()) {
    const NetworkConfig cfg = frontier.front();
    frontier.pop();
    const int fromId = stateIds.at(cfg);

    // Group external assignments by (target, outputs) to merge guards.
    std::map<std::pair<int, std::vector<std::string>>, Guard> merged;

    for (std::uint64_t a = 0; a < (std::uint64_t{1} << numExt); ++a) {
      std::unordered_set<std::string> external;
      for (std::size_t i = 0; i < numExt; ++i) {
        if ((a >> i) & 1) external.insert(dcu.externalInputs[i]);
      }
      NetworkStep step = stepNetwork(dcu, cfg, external);
      std::vector<std::string> outputs;
      for (const std::vector<std::string>& fired : step.outputs) {
        for (const std::string& out : fired) {
          if (!(options.hideInternalSignals && dcu.producerOf.contains(out))) {
            outputs.push_back(out);
          }
        }
      }
      std::sort(outputs.begin(), outputs.end());
      const int toId = intern(step.next);

      Guard minterm = Guard::always();
      for (std::size_t i = 0; i < numExt; ++i) {
        minterm =
            minterm.conjoin(Guard::literal(dcu.externalInputs[i], (a >> i) & 1));
      }
      auto [it, inserted] =
          merged.try_emplace({toId, outputs}, Guard::never());
      it->second = it->second.disjoin(minterm);
    }
    for (auto& [key, guard] : merged) {
      product.addTransition(fromId, key.first, std::move(guard), key.second);
    }
  }
  validateFsm(product);
  return product;
}

}  // namespace tauhls::fsm
