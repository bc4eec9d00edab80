// A minimal textual frontend for dataflow graphs and region programs.
//
// Flat grammar (one statement per line or ';'-separated; '#' starts a
// comment):
//
//   in  a, b, c            declare primary inputs
//   t1 = a * b             binary operation (+ - * / < & | ^ <<)
//   t2 = - t1              unary negation
//   order t1, t2           state edges t1 -> t2 (ordered side effects)
//   out t2, t1             declare primary outputs
//
// Names must be unique identifiers.  Every right-hand operand must already be
// defined.  This is sufficient for all the paper's benchmarks and keeps user
// examples self-describing.
//
// The region grammar adds two block constructs (parseProgram):
//
//   loop 4 {               run the body 4 times (static trip count)
//     acc = acc + x
//   }
//   if c {                 run one branch, selected by the value `c`
//     y = acc * k
//   } else {
//     y = acc + k
//   }
//
// Blocks nest freely; consecutive plain statements between blocks form one
// leaf region.  Values thread between blocks by name (see dfg/region.hpp);
// `in`/`out` stay at the top level.  Input without any block parses to a
// single-leaf (flat) program whose body is bit-identical to parseDfg's.
#pragma once

#include <string>

#include "common/error.hpp"
#include "dfg/region.hpp"

namespace tauhls::dfg {

/// Malformed DFG or region-program text: an input diagnostic
/// "<source>: dfg parse error at line <line>: <detail>", never an internal
/// failure.
class ParseError : public Error {
 public:
  ParseError(const std::string& source, int line, const std::string& detail);
  int line() const { return line_; }
  const std::string& detail() const { return detail_; }

 private:
  int line_;
  std::string detail_;
};

/// Parse a flat DFG from the textual form above; throws ParseError naming
/// `name` and the 1-based line on malformed input.
Dfg parseDfg(const std::string& text, const std::string& name = "dfg");

/// Serialize to the same textual form (round-trips through parseDfg).
std::string printDfg(const Dfg& g);

/// Parse a region program.  Block-free input yields a flat single-leaf
/// program wrapping exactly parseDfg's graph.  Leaf bodies are named
/// `<name>_<path>` and every leaf definition is exported as a leaf output;
/// structural validation is the caller's job (checkRegionProgram).  Throws
/// ParseError on malformed input, as parseDfg does.
RegionProgram parseProgram(const std::string& text,
                           const std::string& name = "program");

/// Serialize a region program to the block syntax (round-trips through
/// parseProgram up to leaf body names).  Flat programs print as printDfg.
std::string printProgram(const RegionProgram& program);

}  // namespace tauhls::dfg
