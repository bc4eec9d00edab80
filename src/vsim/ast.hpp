// AST for the synthesizable Verilog subset tauhls emits (rtl/ and netlist/):
// modules with wire/reg ports, localparams, continuous assigns, gate
// primitives (not/and/or), combinational always @* blocks with if/else and
// case, sequential always @(posedge clk) blocks with nonblocking assigns,
// and module instantiations with named port connections.
//
// The vsim package parses this subset back and cycle-simulates it, so the
// emitted RTL can be checked against the FSM interpreter without an external
// Verilog simulator.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace tauhls::vsim {

// ---- expressions ---------------------------------------------------------

enum class ExprKind : std::uint8_t {
  Const,     // sized constant (value)
  Ref,       // identifier (net, reg, or localparam)
  Not,       // ! / ~ (identical on 1-bit operands; evaluated as logical !)
  And,       // & / &&
  Or,        // | / ||
  Xor,       // ^
  Eq,        // ==
  NotEq,     // != / !==
  Cond,      // c ? t : e (args: condition, then, else)
  Concat,    // {a, b, ...} (args left-to-right, MSB first)
  RedAnd,    // &a (unary reduction)
  RedOr,     // |a
  RedXor,    // ^a
};

struct Expr {
  ExprKind kind = ExprKind::Const;
  std::uint64_t value = 0;                  // Const
  int width = 0;                            // Const: declared width (0 unsized)
  std::string name;                         // Ref
  std::vector<std::unique_ptr<Expr>> args;  // operators
};

using ExprPtr = std::unique_ptr<Expr>;

// ---- statements -----------------------------------------------------------

enum class StmtKind : std::uint8_t { Assign, If, Case };

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct CaseArm {
  ExprPtr label;  // null = default arm
  std::vector<StmtPtr> body;
};

struct Stmt {
  StmtKind kind = StmtKind::Assign;
  // Assign
  std::string lhs;
  ExprPtr rhs;
  bool nonblocking = false;
  // If
  ExprPtr condition;
  std::vector<StmtPtr> thenBody;
  std::vector<StmtPtr> elseBody;
  // Case
  ExprPtr subject;
  std::vector<CaseArm> arms;
};

// ---- module structure -----------------------------------------------------

enum class PortDir : std::uint8_t { Input, Output };

struct Port {
  PortDir dir = PortDir::Input;
  bool isReg = false;
  std::string name;
};

struct NetDecl {
  bool isReg = false;
  int width = 1;
  std::string name;
  ExprPtr init;  // wire n = <expr>; (used for netlist constants)
};

struct ContinuousAssign {
  std::string lhs;
  ExprPtr rhs;
};

/// A gate primitive instance: not/and/or (output first, then inputs).
struct GateInst {
  std::string kind;
  std::string output;
  std::vector<std::string> inputs;
};

struct AlwaysBlock {
  bool sequential = false;  ///< true: @(posedge clk); false: @*
  std::vector<StmtPtr> body;
};

struct Instance {
  std::string moduleName;
  std::string instanceName;
  std::map<std::string, std::string> connections;  ///< port -> outer signal
};

struct Module {
  std::string name;
  std::vector<Port> ports;
  std::vector<NetDecl> nets;
  std::map<std::string, std::uint64_t> localparams;
  std::vector<ContinuousAssign> assigns;
  std::vector<GateInst> gates;
  std::vector<AlwaysBlock> always;
  std::vector<Instance> instances;
};

struct Design {
  std::vector<Module> modules;

  const Module* findModule(const std::string& name) const;
};

}  // namespace tauhls::vsim
