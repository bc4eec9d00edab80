// State encoding for FSM synthesis.
#pragma once

#include <cstdint>
#include <vector>

#include "fsm/machine.hpp"

namespace tauhls::synth {

enum class EncodingStyle {
  Binary,  ///< minimal-length binary, codes assigned in state-id order
  OneHot,  ///< one flip-flop per state
};

struct Encoding {
  EncodingStyle style = EncodingStyle::Binary;
  int bits = 0;                        ///< flip-flop count
  /// Per state id.  A one-hot machine of more than 32 states has no 32-bit
  /// code for states 32 and up (they hold 0); codeBit covers every state.
  std::vector<std::uint32_t> codeOf;

  /// Bit `bit` of the code of state `state`.
  bool codeBit(int state, int bit) const;

  /// State id for `code`; -1 when the code is unused (a don't-care row).
  /// Decodes directly from the code assignment encodeStates makes (binary:
  /// code == state id; one-hot: the single set bit), so the 2^n-row
  /// extraction sweep pays O(1) per row instead of a scan over every code.
  int stateOf(std::uint32_t code) const;
};

Encoding encodeStates(const fsm::Fsm& fsm, EncodingStyle style);

}  // namespace tauhls::synth
