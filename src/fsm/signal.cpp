#include "fsm/signal.hpp"

#include <cctype>

#include "common/strings.hpp"

namespace tauhls::fsm {

std::string unitCompletionSignal(const sched::UnitInstance& unit) {
  return "C_" + unit.name;
}

std::string opCompletionSignal(const std::string& opName) {
  return "CCO_" + opName;
}

std::string operandFetchSignal(const std::string& opName) {
  return "OF_" + opName;
}

std::string registerEnableSignal(const std::string& opName) {
  return "RE_" + opName;
}

std::string executionStateName(int index, int level) {
  return numbered("S", index) + std::string(static_cast<std::size_t>(level), 'p');
}

std::string readyStateName(int index) { return numbered("R", index); }

StateName parseStateName(const std::string& name) {
  StateName p;
  if (name.size() < 2 || (name[0] != 'S' && name[0] != 'R')) return p;
  std::size_t end = name.size();
  int level = 0;
  while (end > 1 && name[end - 1] == 'p') {
    ++level;
    --end;
  }
  if (end == 1 || (name[0] == 'R' && level != 0)) return p;
  for (std::size_t i = 1; i < end; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return p;
  }
  p.kind = name[0] == 'S' ? StateName::Kind::Execute : StateName::Kind::Ready;
  p.index = std::stoi(name.substr(1, end - 1));
  p.level = level;
  return p;
}

}  // namespace tauhls::fsm
