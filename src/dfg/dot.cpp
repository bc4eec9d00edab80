#include "dfg/dot.hpp"

#include <sstream>

#include "dfg/region.hpp"

namespace tauhls::dfg {

namespace {

/// Nodes and edges of one graph, with node ids offset so several leaf bodies
/// can share one DOT document.
void emitBody(std::ostringstream& os, const Dfg& g, const DotOptions& options,
              NodeId offset, const std::string& indent) {
  for (NodeId i = 0; i < g.numNodes(); ++i) {
    const Node& n = g.node(i);
    if (n.kind == OpKind::Input) {
      os << indent << "n" << offset + i << " [shape=plaintext,label=\""
         << portBaseName(n.name) << "\"];\n";
    } else {
      os << indent << "n" << offset + i << " [shape=circle,label=\""
         << opKindSymbol(n.kind) << "\\n" << n.name << "\"];\n";
    }
  }
  for (NodeId i = 0; i < g.numNodes(); ++i) {
    const Node& n = g.node(i);
    for (NodeId o : n.operands) {
      os << indent << "n" << offset + o << " -> n" << offset + i << ";\n";
    }
  }
  if (options.showScheduleArcs) {
    for (const ScheduleArc& a : g.scheduleArcs()) {
      os << indent << "n" << offset + a.from << " -> n" << offset + a.to
         << " [style=dashed,color=gray];\n";
    }
  }
  for (const ScheduleArc& a : g.stateEdges()) {
    os << indent << "n" << offset + a.from << " -> n" << offset + a.to
       << " [style=bold,color=firebrick,label=\"order\"];\n";
  }
}

/// Cluster label, e.g. "loop x4" or "if c / then".
void emitRegion(std::ostringstream& os, const Region& r,
                const std::string& path, const std::string& label,
                const DotOptions& options, NodeId& offset, int depth) {
  const std::string indent(static_cast<std::size_t>(2 * (depth + 1)), ' ');
  switch (r.kind) {
    case RegionKind::Leaf:
      os << indent << "subgraph \"cluster_" << path << "\" {\n";
      os << indent << "  label=\"" << (label.empty() ? r.body.name() : label)
         << "\";\n";
      os << indent << "  style=rounded;\n";
      emitBody(os, r.body, options, offset, indent + "  ");
      offset += r.body.numNodes();
      os << indent << "}\n";
      break;
    case RegionKind::Seq:
      for (std::size_t i = 0; i < r.children.size(); ++i) {
        emitRegion(os, r.children[i],
                   childRegionPath(path, "s" + std::to_string(i)), "", options,
                   offset, depth);
      }
      break;
    case RegionKind::Loop:
      os << indent << "subgraph \"cluster_" << path << "_loop\" {\n";
      os << indent << "  label=\"loop x" << r.tripCount << "\";\n";
      os << indent << "  style=dashed;\n";
      emitRegion(os, r.children.front(), childRegionPath(path, "l"), "",
                 options, offset, depth + 1);
      os << indent << "}\n";
      break;
    case RegionKind::Cond:
      os << indent << "subgraph \"cluster_" << path << "_cond\" {\n";
      os << indent << "  label=\"if " << r.condName << "\";\n";
      os << indent << "  style=dashed;\n";
      emitRegion(os, r.children[0], childRegionPath(path, "t"), "then",
                 options, offset, depth + 1);
      emitRegion(os, r.children[1], childRegionPath(path, "e"), "else",
                 options, offset, depth + 1);
      os << indent << "}\n";
      break;
  }
}

}  // namespace

std::string toDot(const Dfg& g, const DotOptions& options) {
  std::ostringstream os;
  os << "digraph \"" << g.name() << "\" {\n";
  os << "  rankdir=TB;\n";
  emitBody(os, g, options, 0, "  ");
  os << "}\n";
  return os.str();
}

std::string toDot(const RegionProgram& program, const DotOptions& options) {
  // A flat program renders exactly like its leaf body always has.
  if (program.isFlat()) return toDot(program.root.body, options);
  std::ostringstream os;
  os << "digraph \"" << program.name << "\" {\n";
  os << "  rankdir=TB;\n";
  os << "  compound=true;\n";
  NodeId offset = 0;
  emitRegion(os, program.root, "", "", options, offset, 0);
  os << "}\n";
  return os.str();
}

}  // namespace tauhls::dfg
