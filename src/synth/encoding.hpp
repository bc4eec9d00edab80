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

  /// State id for `code`, bit b of which is state bit b; -1 when the code
  /// is unused (a don't-care row).  Decodes directly from the code
  /// assignment encodeStates makes (binary: code == state id; one-hot: the
  /// index of the single set bit), so it covers every machine of at most 64
  /// state bits -- every one synthesize() accepts -- in O(1).
  int stateOf(std::uint64_t code) const;
};

Encoding encodeStates(const fsm::Fsm& fsm, EncodingStyle style);

}  // namespace tauhls::synth
