#include "dfg/textio.hpp"

#include <functional>
#include <optional>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace tauhls::dfg {

namespace {

std::optional<OpKind> kindForSymbol(const std::string& sym) {
  if (sym == "+") return OpKind::Add;
  if (sym == "-") return OpKind::Sub;
  if (sym == "*") return OpKind::Mul;
  if (sym == "/") return OpKind::Div;
  if (sym == "<") return OpKind::Compare;
  if (sym == "&") return OpKind::And;
  if (sym == "|") return OpKind::Or;
  if (sym == "^") return OpKind::Xor;
  if (sym == "<<") return OpKind::Shift;
  return std::nullopt;
}

/// Thrown by the parser internals; the public entry points turn it into a
/// ParseError that names the source.
struct ParseFailure {
  int line;
  std::string detail;
};

[[noreturn]] void parseError(int line, const std::string& msg) {
  throw ParseFailure{line, msg};
}

/// Runs one parse, reporting a ParseFailure as the ParseError of `source`.
template <typename Parse>
auto reportingParseErrors(const std::string& source, Parse&& parse) {
  try {
    return parse();
  } catch (const ParseFailure& f) {
    throw ParseError(source, f.line, f.detail);
  }
}

NodeId lookup(const Dfg& g, const std::string& name, int line) {
  NodeId id = g.findByName(name);
  if (id == kNoNode) parseError(line, "undefined name '" + name + "'");
  return id;
}

// Tokenize one statement into identifiers/operators.
std::vector<std::string> tokenize(const std::string& stmt, int line) {
  std::vector<std::string> toks;
  std::size_t i = 0;
  while (i < stmt.size()) {
    char c = stmt[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < stmt.size() &&
             (std::isalnum(static_cast<unsigned char>(stmt[j])) || stmt[j] == '_')) {
        ++j;
      }
      toks.push_back(stmt.substr(i, j - i));
      i = j;
    } else if (c == '<' && i + 1 < stmt.size() && stmt[i + 1] == '<') {
      toks.push_back("<<");
      i += 2;
    } else if (std::string("+-*/<&|^=,").find(c) != std::string::npos) {
      toks.push_back(std::string(1, c));
      ++i;
    } else {
      parseError(line, std::string("unexpected character '") + c + "'");
    }
  }
  return toks;
}

/// One `name = expr` statement, with operand resolution supplied by the
/// caller (flat parse requires operands to exist; leaf parse auto-creates
/// input ports for external reads).
void parseAssignment(Dfg& g, const std::vector<std::string>& toks, int ln,
                     const std::string& stmt,
                     const std::function<NodeId(const std::string&, int)>&
                         resolve) {
  const std::string& dst = toks[0];
  if (toks.size() == 4 && toks[2] == "-") {
    NodeId a = resolve(toks[3], ln);
    g.addOp(OpKind::Neg, {a}, dst);
  } else if (toks.size() == 5) {
    auto kind = kindForSymbol(toks[3]);
    if (!kind) parseError(ln, "unknown operator '" + toks[3] + "'");
    NodeId a = resolve(toks[2], ln);
    NodeId b = resolve(toks[4], ln);
    g.addOp(*kind, {a, b}, dst);
  } else {
    parseError(ln, "malformed expression in '" + stmt + "'");
  }
}

/// `order a, b, c`: state edges a -> b -> c between already-defined ops.
void parseOrder(Dfg& g, const std::vector<std::string>& toks, int ln) {
  std::vector<NodeId> chain;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    if (toks[i] == ",") continue;
    if (!isIdentifier(toks[i])) {
      parseError(ln, "expected identifier, got '" + toks[i] + "'");
    }
    NodeId id = lookup(g, toks[i], ln);
    if (!g.isOp(id)) {
      parseError(ln, "'" + toks[i] +
                         "' is an input; order connects operations defined in "
                         "the same block");
    }
    chain.push_back(id);
  }
  if (chain.size() < 2) parseError(ln, "order needs at least two operations");
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    g.addStateEdge(chain[i], chain[i + 1]);
  }
}

/// Comment-stripped, ';'-split, trimmed statements with their line numbers.
std::vector<std::pair<int, std::string>> splitStatements(
    const std::string& text) {
  std::vector<std::pair<int, std::string>> stmts;
  int lineNo = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++lineNo;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    for (const std::string& stmt : split(line, ';')) {
      if (!trim(stmt).empty()) stmts.emplace_back(lineNo, trim(stmt));
    }
  }
  return stmts;
}

Dfg parseFlat(const std::string& text, const std::string& name) {
  Dfg g(name);
  std::vector<std::pair<int, std::string>> pendingOutputs;
  const auto resolve = [&g](const std::string& n, int ln) {
    return lookup(g, n, ln);
  };
  for (const auto& [ln, stmt] : splitStatements(text)) {
    std::vector<std::string> toks = tokenize(stmt, ln);
    TAUHLS_ASSERT(!toks.empty(), "empty statement survived filtering");
    if (toks[0] == "in" || toks[0] == "out") {
      for (std::size_t i = 1; i < toks.size(); ++i) {
        if (toks[i] == ",") continue;
        if (!isIdentifier(toks[i])) parseError(ln, "expected identifier, got '" + toks[i] + "'");
        if (toks[0] == "in") {
          g.addInput(toks[i]);
        } else {
          pendingOutputs.emplace_back(ln, toks[i]);
        }
      }
      continue;
    }
    if (toks[0] == "order") {
      parseOrder(g, toks, ln);
      continue;
    }
    // assignment: name = a OP b  |  name = - a
    if (toks.size() < 3 || toks[1] != "=" || !isIdentifier(toks[0])) {
      parseError(ln, "expected 'name = expr'");
    }
    parseAssignment(g, toks, ln, stmt, resolve);
  }
  for (const auto& [ln, o] : pendingOutputs) {
    NodeId id = g.findByName(o);
    if (id == kNoNode) parseError(ln, "output '" + o + "' is undefined");
    g.markOutput(id);
  }
  g.validate();
  return g;
}

}  // namespace

std::string printDfg(const Dfg& g) {
  std::ostringstream os;
  std::vector<std::string> ins;
  for (NodeId i : g.inputIds()) ins.push_back(g.node(i).name);
  if (!ins.empty()) os << "in " << join(ins, ", ") << "\n";
  for (NodeId i = 0; i < g.numNodes(); ++i) {
    const Node& n = g.node(i);
    if (n.kind == OpKind::Input) continue;
    if (n.kind == OpKind::Neg) {
      os << n.name << " = - " << g.node(n.operands[0]).name << "\n";
    } else {
      os << n.name << " = " << g.node(n.operands[0]).name << " "
         << opKindSymbol(n.kind) << " " << g.node(n.operands[1]).name << "\n";
    }
  }
  for (const ScheduleArc& e : g.stateEdges()) {
    os << "order " << g.node(e.from).name << ", " << g.node(e.to).name << "\n";
  }
  std::vector<std::string> outs;
  for (NodeId o : g.outputs()) outs.push_back(g.node(o).name);
  if (!outs.empty()) os << "out " << join(outs, ", ") << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Region-program parsing.
// ---------------------------------------------------------------------------

namespace {

enum class StmtKind { Plain, LoopOpen, IfOpen, Else, Close };

struct BlockStmt {
  int line = 0;
  StmtKind kind = StmtKind::Plain;
  std::string text;  ///< Plain: the statement body
  int tripCount = 0; ///< LoopOpen
  std::string selector;  ///< IfOpen
};

BlockStmt classify(int ln, const std::string& stmt) {
  BlockStmt out;
  out.line = ln;
  if (stmt == "}") {
    out.kind = StmtKind::Close;
    return out;
  }
  if (!stmt.empty() && stmt.front() == '}') {
    // Only "} else {" may follow a closing brace on one line.
    const std::string rest = trim(stmt.substr(1));
    if (rest.size() >= 2 && rest.back() == '{' &&
        trim(rest.substr(0, rest.size() - 1)) == "else") {
      out.kind = StmtKind::Else;
      return out;
    }
    parseError(ln, "expected '}' or '} else {', got '" + stmt + "'");
  }
  if (!stmt.empty() && stmt.back() == '{') {
    const std::string header = trim(stmt.substr(0, stmt.size() - 1));
    const std::vector<std::string> toks = tokenize(header, ln);
    if (!toks.empty() && toks[0] == "loop") {
      if (toks.size() != 2) parseError(ln, "expected 'loop <count> {'");
      for (char c : toks[1]) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          parseError(ln, "loop trip count '" + toks[1] + "' is not a number");
        }
      }
      out.kind = StmtKind::LoopOpen;
      out.tripCount = std::stoi(toks[1]);
      return out;
    }
    if (!toks.empty() && toks[0] == "if") {
      if (toks.size() != 2 || !isIdentifier(toks[1])) {
        parseError(ln, "expected 'if <name> {'");
      }
      out.kind = StmtKind::IfOpen;
      out.selector = toks[1];
      return out;
    }
    parseError(ln, "expected 'loop <count> {' or 'if <name> {'");
  }
  out.kind = StmtKind::Plain;
  out.text = stmt;
  return out;
}

/// Build one leaf body from its plain statements.  External reads become
/// input ports (suffixed when the leaf redefines the name); every definition
/// is exported as a leaf output.
Dfg buildLeaf(const std::vector<BlockStmt>& stmts) {
  std::set<std::string> defs;
  for (const BlockStmt& s : stmts) {
    const std::vector<std::string> toks = tokenize(s.text, s.line);
    if (toks.empty() || toks[0] == "order") continue;
    if (toks.size() < 3 || toks[1] != "=" || !isIdentifier(toks[0])) {
      parseError(s.line, "expected 'name = expr'");
    }
    if (!defs.insert(toks[0]).second) {
      parseError(s.line, "redefinition of '" + toks[0] + "' in the same block");
    }
  }
  Dfg g("leaf");
  const auto resolve = [&g, &defs](const std::string& name, int ln) -> NodeId {
    if (!isIdentifier(name)) {
      parseError(ln, "expected identifier, got '" + name + "'");
    }
    NodeId id = g.findByName(name);
    if (id != kNoNode && g.isOp(id)) return id;  // locally defined above
    const std::string port =
        defs.count(name) != 0 ? name + kExternalPortSuffix : name;
    NodeId pid = g.findByName(port);
    return pid != kNoNode ? pid : g.addInput(port);
  };
  for (const BlockStmt& s : stmts) {
    const std::vector<std::string> toks = tokenize(s.text, s.line);
    if (!toks.empty() && toks[0] == "order") {
      parseOrder(g, toks, s.line);
      continue;
    }
    parseAssignment(g, toks, s.line, s.text, resolve);
  }
  for (NodeId v : g.opIds()) g.markOutput(v);
  g.validate();
  return g;
}

class ProgramParser {
 public:
  ProgramParser(std::vector<BlockStmt> stmts, const std::string& name)
      : stmts_(std::move(stmts)) {
    program_.name = name;
  }

  RegionProgram run() {
    program_.root = parseBlock(/*topLevel=*/true, 0);
    TAUHLS_ASSERT(pos_ == stmts_.size(), "program parser left statements");
    nameLeaves(program_);
    return std::move(program_);
  }

 private:
  bool done() const { return pos_ >= stmts_.size(); }
  const BlockStmt& cur() const { return stmts_[pos_]; }

  Region parseBlock(bool topLevel, int openLine) {
    std::vector<Region> children;
    std::vector<BlockStmt> leafBuf;
    const auto flushLeaf = [&] {
      if (!leafBuf.empty()) {
        children.push_back(Region::leaf(buildLeaf(leafBuf)));
        leafBuf.clear();
      }
    };
    while (!done()) {
      const BlockStmt& s = cur();
      switch (s.kind) {
        case StmtKind::Close:
        case StmtKind::Else:
          if (topLevel) parseError(s.line, "unmatched '}'");
          flushLeaf();
          return Region::seq(std::move(children));
        case StmtKind::LoopOpen: {
          flushLeaf();
          const int trip = s.tripCount;
          const int line = s.line;
          ++pos_;
          Region body = parseBlock(false, line);
          expectClose(StmtKind::Close, line);
          children.push_back(Region::loop(trip, std::move(body)));
          break;
        }
        case StmtKind::IfOpen: {
          flushLeaf();
          const std::string sel = s.selector;
          const int line = s.line;
          ++pos_;
          Region thenBody = parseBlock(false, line);
          expectClose(StmtKind::Else, line);
          Region elseBody = parseBlock(false, line);
          expectClose(StmtKind::Close, line);
          children.push_back(
              Region::cond(sel, std::move(thenBody), std::move(elseBody)));
          break;
        }
        case StmtKind::Plain: {
          const std::vector<std::string> toks = tokenize(s.text, s.line);
          if (!toks.empty() && (toks[0] == "in" || toks[0] == "out")) {
            if (!topLevel) {
              parseError(s.line, "'" + toks[0] +
                                     "' declarations belong at the top level");
            }
            collectNames(toks, s.line,
                         toks[0] == "in" ? program_.inputs : program_.outputs);
          } else {
            leafBuf.push_back(s);
          }
          ++pos_;
          break;
        }
      }
    }
    if (!topLevel) {
      parseError(openLine, "block opened here is never closed with '}'");
    }
    flushLeaf();
    return Region::seq(std::move(children));
  }

  void expectClose(StmtKind kind, int openLine) {
    const char* what = kind == StmtKind::Else ? "'} else {'" : "'}'";
    if (done()) {
      parseError(openLine, std::string("block opened here is never closed "
                                       "with ") +
                               what);
    }
    if (cur().kind != kind) {
      parseError(cur().line, std::string("expected ") + what);
    }
    ++pos_;
  }

  void collectNames(const std::vector<std::string>& toks, int ln,
                    std::vector<std::string>& into) {
    for (std::size_t i = 1; i < toks.size(); ++i) {
      if (toks[i] == ",") continue;
      if (!isIdentifier(toks[i])) {
        parseError(ln, "expected identifier, got '" + toks[i] + "'");
      }
      for (const std::string& existing : into) {
        if (existing == toks[i]) {
          parseError(ln, "duplicate declaration of '" + toks[i] + "'");
        }
      }
      into.push_back(toks[i]);
    }
  }

  std::vector<BlockStmt> stmts_;
  std::size_t pos_ = 0;
  RegionProgram program_;
};

void printRegion(std::ostringstream& os, const Region& r, int depth) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  switch (r.kind) {
    case RegionKind::Leaf: {
      const Dfg& g = r.body;
      const auto display = [&g](NodeId id) {
        const Node& n = g.node(id);
        return n.kind == OpKind::Input ? portBaseName(n.name) : n.name;
      };
      for (NodeId i = 0; i < g.numNodes(); ++i) {
        const Node& n = g.node(i);
        if (n.kind == OpKind::Input) continue;
        if (n.kind == OpKind::Neg) {
          os << pad << n.name << " = - " << display(n.operands[0]) << "\n";
        } else {
          os << pad << n.name << " = " << display(n.operands[0]) << " "
             << opKindSymbol(n.kind) << " " << display(n.operands[1]) << "\n";
        }
      }
      for (const ScheduleArc& e : g.stateEdges()) {
        os << pad << "order " << g.node(e.from).name << ", "
           << g.node(e.to).name << "\n";
      }
      break;
    }
    case RegionKind::Seq:
      for (const Region& c : r.children) printRegion(os, c, depth);
      break;
    case RegionKind::Loop:
      os << pad << "loop " << r.tripCount << " {\n";
      if (!r.children.empty()) printRegion(os, r.children.front(), depth + 1);
      os << pad << "}\n";
      break;
    case RegionKind::Cond:
      os << pad << "if " << r.condName << " {\n";
      if (r.children.size() == 2) {
        printRegion(os, r.children[0], depth + 1);
        os << pad << "} else {\n";
        printRegion(os, r.children[1], depth + 1);
      }
      os << pad << "}\n";
      break;
  }
}

RegionProgram parseRegions(const std::string& text, const std::string& name) {
  std::vector<BlockStmt> stmts;
  bool hierarchical = false;
  for (const auto& [ln, stmt] : splitStatements(text)) {
    stmts.push_back(classify(ln, stmt));
    hierarchical |= stmts.back().kind != StmtKind::Plain;
  }
  if (!hierarchical) {
    // Block-free input stays on the flat front end bit-for-bit.
    RegionProgram p;
    p.name = name;
    p.root = Region::leaf(parseFlat(text, name));
    const Dfg& body = p.root.body;
    for (NodeId i : body.inputIds()) p.inputs.push_back(body.node(i).name);
    for (NodeId o : body.outputs()) p.outputs.push_back(body.node(o).name);
    return p;
  }
  return ProgramParser(std::move(stmts), name).run();
}

}  // namespace

ParseError::ParseError(const std::string& source, int line,
                       const std::string& detail)
    : Error(source + ": dfg parse error at line " + std::to_string(line) +
            ": " + detail),
      line_(line),
      detail_(detail) {}

Dfg parseDfg(const std::string& text, const std::string& name) {
  return reportingParseErrors(name, [&] { return parseFlat(text, name); });
}

RegionProgram parseProgram(const std::string& text, const std::string& name) {
  return reportingParseErrors(name, [&] { return parseRegions(text, name); });
}

std::string printProgram(const RegionProgram& program) {
  if (program.isFlat()) return printDfg(program.root.body);
  std::ostringstream os;
  if (!program.inputs.empty()) {
    os << "in " << join(program.inputs, ", ") << "\n";
  }
  printRegion(os, program.root, 0);
  if (!program.outputs.empty()) {
    os << "out " << join(program.outputs, ", ") << "\n";
  }
  return os.str();
}

}  // namespace tauhls::dfg
