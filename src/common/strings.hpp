// Small string utilities used across modules (no dependency beyond <string>).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace tauhls {

/// Join the elements of `parts` with `sep` ("a", "b" -> "a,b").
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Trim ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Split on a single character, dropping empty fragments when `keepEmpty` is false.
std::vector<std::string> split(const std::string& s, char sep, bool keepEmpty = false);

/// True when `s` is a valid C-style identifier (letter/underscore start).
bool isIdentifier(const std::string& s);

/// `s` with every character outside [A-Za-z0-9_] replaced by '_': a legal
/// identifier tail ("a-b" -> "a_b"); the caller supplies a leading letter.
std::string identifierChars(const std::string& s);

/// Escape `s` for embedding in a JSON string literal: quotes, backslashes,
/// \n \r \t, and every other control character as \u00XX.
std::string jsonEscape(std::string_view s);

/// printf-style "%d"-free integer-to-string with fixed-width zero padding.
std::string zeroPad(unsigned value, int width);

/// `stem` followed by the decimal rendering of `n` ("S", 3 -> "S3").
/// Equivalent to `stem + std::to_string(n)` but built by append: the rvalue
/// operator+ form trips a gcc-12 -Wrestrict false positive under -O3
/// (GCC PR105651), and library targets compile with warnings as errors.
template <class Int>
std::string numbered(const char* stem, Int n) {
  std::string s = stem;
  s += std::to_string(n);
  return s;
}

}  // namespace tauhls
