#include "testutil.hpp"

#include <algorithm>
#include <filesystem>

#include <gtest/gtest.h>

namespace tauhls::test {

using dfg::Dfg;
using dfg::NodeId;
using dfg::OpKind;

std::vector<std::string> namesOf(const Dfg& g, const std::vector<NodeId>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (NodeId id : ids) out.push_back(g.node(id).name);
  return out;
}

bool isTopologicalOrder(const Dfg& g, const std::vector<NodeId>& order) {
  if (order.size() != g.numNodes()) return false;
  std::vector<int> pos(g.numNodes(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= g.numNodes() || pos[order[i]] != -1) return false;
    pos[order[i]] = static_cast<int>(i);
  }
  for (NodeId v = 0; v < g.numNodes(); ++v) {
    for (NodeId p : g.combinedPredecessors(v)) {
      if (pos[p] >= pos[v]) return false;
    }
  }
  return true;
}

Dfg diamond() {
  Dfg g("diamond");
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId m1 = g.addOp(OpKind::Mul, {a, b}, "m1");
  NodeId m2 = g.addOp(OpKind::Mul, {a, b}, "m2");
  NodeId s = g.addOp(OpKind::Add, {m1, m2}, "s");
  g.markOutput(s);
  return g;
}

Dfg mulChain(int n) {
  Dfg g("mul_chain" + std::to_string(n));
  NodeId prev = g.addInput("x");
  NodeId c = g.addInput("c");
  for (int i = 0; i < n; ++i) {
    prev = g.addOp(OpKind::Mul, {prev, c}, "m" + std::to_string(i));
  }
  g.markOutput(prev);
  return g;
}

Dfg parallelMuls(int n) {
  Dfg g("par_muls" + std::to_string(n));
  for (int i = 0; i < n; ++i) {
    NodeId a = g.addInput("a" + std::to_string(i));
    NodeId b = g.addInput("b" + std::to_string(i));
    NodeId m = g.addOp(OpKind::Mul, {a, b}, "m" + std::to_string(i));
    g.markOutput(m);
  }
  return g;
}

std::string testScratchDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("tauhls_") + info->test_suite_name() + "_" + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string() + "/";
}

}  // namespace tauhls::test
