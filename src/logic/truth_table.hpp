// Explicit truth table with don't-cares, for single-output functions of up to
// 24 variables (16M rows).  The Reference regime's FSM logic extraction
// produces one of these per next-state bit / output signal; the Fast regime
// builds one from cube lists only up to 14 variables (logic/minimize.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace tauhls::logic {

enum class Ternary : std::uint8_t { Zero = 0, One = 1, DontCare = 2 };

class TruthTable {
 public:
  /// All-zero table (offset everywhere).
  explicit TruthTable(int numVars);

  int numVars() const { return numVars_; }
  std::uint64_t numRows() const { return std::uint64_t{1} << numVars_; }

  Ternary get(std::uint64_t row) const;
  void set(std::uint64_t row, Ternary v);

  std::vector<std::uint64_t> onset() const;
  std::vector<std::uint64_t> offset() const;
  std::vector<std::uint64_t> dcset() const;

  /// True when the function is constant 0/1 over the care set.
  bool constantOverCareSet(bool& valueOut) const;

 private:
  int numVars_;
  std::vector<std::uint8_t> rows_;
};

}  // namespace tauhls::logic
