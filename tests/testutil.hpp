// Shared helpers for the test suites.
#pragma once

#include <string>
#include <vector>

#include "dfg/graph.hpp"

namespace tauhls::test {

/// Names of the given nodes, in order (readable gtest failure messages).
std::vector<std::string> namesOf(const dfg::Dfg& g,
                                 const std::vector<dfg::NodeId>& ids);

/// True when `order` is a valid topological order of g (data + schedule arcs).
bool isTopologicalOrder(const dfg::Dfg& g, const std::vector<dfg::NodeId>& order);

/// Simple diamond DFG used by many unit tests:
///   in a,b ; m1=a*b ; m2=a*b ; s=m1+m2 ; out s
dfg::Dfg diamond();

/// A chain of `n` multiplications (each feeding the next).
dfg::Dfg mulChain(int n);

/// `n` independent multiplications (maximal concurrency).
dfg::Dfg parallelMuls(int n);

/// A fresh directory (with trailing '/') under the gtest temp root, named
/// after the running test.  ctest runs every case as its own process, in
/// parallel, so files shared between cases under fixed names would race.
std::string testScratchDir();

}  // namespace tauhls::test
