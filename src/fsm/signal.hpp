// Canonical control-signal and controller-state naming shared by FSM
// generation, simulation and RTL emission (paper Figs. 5-7):
//   C_<unit>    completion signal of a telescopic unit's generator
//   CCO_<op>    operation-completion signal (C_CO at the producer,
//               C_PO at consumers -- same wire)
//   OF_<op>     operand-fetch signal driving the unit's input muxes
//   RE_<op>     register-enable latching the op's result
//   S<i>p..p    level k (k trailing p's) of op (or CENT-SYNC step) i's
//               execution chain: S_i, S_i', S_i'', ...
//   R<i>        ready-wait state before op i
#pragma once

#include <string>

#include "sched/binding.hpp"

namespace tauhls::fsm {

std::string unitCompletionSignal(const sched::UnitInstance& unit);
std::string opCompletionSignal(const std::string& opName);
std::string operandFetchSignal(const std::string& opName);
std::string registerEnableSignal(const std::string& opName);

std::string executionStateName(int index, int level);
std::string readyStateName(int index);

/// A state name decoded by parseStateName.
struct StateName {
  enum class Kind { Other, Execute, Ready };
  Kind kind = Kind::Other;
  int index = -1;
  int level = 0;  ///< execution level (Execute only)

  bool isExecute(int atLevel) const {
    return kind == Kind::Execute && level == atLevel;
  }
};

/// Inverse of executionStateName / readyStateName; Kind::Other for every
/// other name (DONE, sequencer wait states, ...).
StateName parseStateName(const std::string& name);

}  // namespace tauhls::fsm
