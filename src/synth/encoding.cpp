#include "synth/encoding.hpp"

#include <bit>

#include "common/error.hpp"

namespace tauhls::synth {

int Encoding::stateOf(std::uint32_t code) const {
  const std::size_t states = codeOf.size();
  if (style == EncodingStyle::Binary) {
    return code < states ? static_cast<int>(code) : -1;
  }
  if (!std::has_single_bit(code)) return -1;
  const auto s = static_cast<std::size_t>(std::countr_zero(code));
  return s < states ? static_cast<int>(s) : -1;
}

bool Encoding::codeBit(int state, int bit) const {
  if (style == EncodingStyle::OneHot) return bit == state;
  return (codeOf[static_cast<std::size_t>(state)] >> bit) & 1u;
}

Encoding encodeStates(const fsm::Fsm& fsm, EncodingStyle style) {
  TAUHLS_CHECK(fsm.numStates() > 0, "cannot encode an empty FSM");
  Encoding e;
  e.style = style;
  if (style == EncodingStyle::Binary) {
    e.bits = fsm.flipFlopCount();
    for (std::uint32_t s = 0; s < fsm.numStates(); ++s) e.codeOf.push_back(s);
  } else {
    e.bits = static_cast<int>(fsm.numStates());
    for (std::uint32_t s = 0; s < fsm.numStates(); ++s) {
      e.codeOf.push_back(s < 32 ? std::uint32_t{1} << s : 0);
    }
  }
  return e;
}

}  // namespace tauhls::synth
