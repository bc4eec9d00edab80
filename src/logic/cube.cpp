#include "logic/cube.hpp"

#include <bit>
#include <vector>

#include "common/error.hpp"

namespace tauhls::logic {

Cube::Cube(int numVars, std::uint64_t care, std::uint64_t value)
    : numVars_(numVars), care_(care), value_(value & care) {}

Cube Cube::full(int numVars) {
  TAUHLS_CHECK(numVars >= 0 && numVars <= 64, "cube supports 0..64 variables");
  return Cube(numVars, 0, 0);
}

Cube Cube::minterm(int numVars, std::uint64_t assignment) {
  TAUHLS_CHECK(numVars >= 0 && numVars <= 64, "cube supports 0..64 variables");
  const std::uint64_t mask = varsMask(numVars);
  TAUHLS_CHECK((assignment & ~mask) == 0, "assignment uses unknown variables");
  return Cube(numVars, mask, assignment);
}

Cube Cube::fromMasks(int numVars, std::uint64_t care, std::uint64_t value) {
  TAUHLS_CHECK(numVars >= 0 && numVars <= 64, "cube supports 0..64 variables");
  TAUHLS_CHECK((care & ~varsMask(numVars)) == 0,
               "care mask uses unknown variables");
  return Cube(numVars, care, value);
}

void Cube::setLiteral(int var, bool positive) {
  TAUHLS_CHECK(var >= 0 && var < numVars_, "literal index out of range");
  const std::uint64_t bit = std::uint64_t{1} << var;
  care_ |= bit;
  if (positive) {
    value_ |= bit;
  } else {
    value_ &= ~bit;
  }
}

void Cube::dropLiteral(int var) {
  TAUHLS_CHECK(var >= 0 && var < numVars_, "literal index out of range");
  const std::uint64_t bit = std::uint64_t{1} << var;
  care_ &= ~bit;
  value_ &= ~bit;
}

bool Cube::hasLiteral(int var) const {
  TAUHLS_CHECK(var >= 0 && var < numVars_, "literal index out of range");
  return (care_ >> var) & 1;
}

bool Cube::literalPositive(int var) const {
  TAUHLS_CHECK(hasLiteral(var), "variable is not a literal of this cube");
  return (value_ >> var) & 1;
}

int Cube::numLiterals() const { return std::popcount(care_); }

bool Cube::covers(std::uint64_t assignment) const {
  return (assignment & care_) == value_;
}

bool Cube::contains(const Cube& other) const {
  TAUHLS_ASSERT(numVars_ == other.numVars_, "cube arity mismatch");
  // Every literal of this cube must be a literal of `other` with equal polarity.
  if ((care_ & other.care_) != care_) return false;
  return (other.value_ & care_) == value_;
}

bool Cube::intersects(const Cube& other) const {
  TAUHLS_ASSERT(numVars_ == other.numVars_, "cube arity mismatch");
  const std::uint64_t common = care_ & other.care_;
  return (value_ & common) == (other.value_ & common);
}

std::optional<Cube> Cube::merge(const Cube& other) const {
  TAUHLS_ASSERT(numVars_ == other.numVars_, "cube arity mismatch");
  if (care_ != other.care_) return std::nullopt;
  const std::uint64_t diff = value_ ^ other.value_;
  if (std::popcount(diff) != 1) return std::nullopt;
  Cube merged = *this;
  merged.care_ &= ~diff;
  merged.value_ &= ~diff;
  return merged;
}

std::uint64_t Cube::size() const {
  return std::uint64_t{1} << (numVars_ - numLiterals());
}

std::vector<std::uint64_t> Cube::minterms() const {
  // Enumerate assignments of the free (non-care) variables.
  std::vector<int> freeVars;
  for (int v = 0; v < numVars_; ++v) {
    if (!((care_ >> v) & 1)) freeVars.push_back(v);
  }
  std::vector<std::uint64_t> out;
  out.reserve(std::size_t{1} << freeVars.size());
  for (std::uint64_t k = 0; k < (std::uint64_t{1} << freeVars.size()); ++k) {
    std::uint64_t m = value_;
    for (std::size_t i = 0; i < freeVars.size(); ++i) {
      if ((k >> i) & 1) m |= std::uint64_t{1} << freeVars[i];
    }
    out.push_back(m);
  }
  return out;
}

std::string Cube::toString() const {
  std::string s;
  s.reserve(static_cast<std::size_t>(numVars_));
  for (int v = 0; v < numVars_; ++v) {
    if (!hasLiteral(v)) {
      s += '-';
    } else {
      s += literalPositive(v) ? '1' : '0';
    }
  }
  return s;
}

}  // namespace tauhls::logic
