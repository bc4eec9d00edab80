// Graphviz (DOT) export of dataflow graphs, for documentation and debugging.
#pragma once

#include <string>

#include "dfg/graph.hpp"

namespace tauhls::dfg {

struct RegionProgram;  // dfg/region.hpp

struct DotOptions {
  bool showScheduleArcs = true;  ///< dashed edges for sequencing arcs
};

/// Render `g` as a DOT digraph.  State edges render bold ("order"); graphs
/// without them render exactly as before.
std::string toDot(const Dfg& g, const DotOptions& options = {});

/// Render a region program with one `subgraph cluster_<path>` per leaf and
/// dashed wrapper clusters for loops ("loop xN") and conditionals
/// ("if <name>" with then/else sub-clusters).  Flat programs render through
/// the Dfg overload unchanged.
std::string toDot(const RegionProgram& program, const DotOptions& options = {});

}  // namespace tauhls::dfg
