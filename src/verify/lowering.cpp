#include "verify/lowering.hpp"

#include <algorithm>
#include <bit>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "fsm/network.hpp"

namespace tauhls::verify::lowering {

using aig::Aig;
using aig::kLitFalse;
using aig::kLitTrue;
using aig::Lit;

Lit stateMatch(Aig& g, const synth::Encoding& enc,
               const std::vector<Lit>& stateBits, int s) {
  Lit acc = kLitTrue;
  for (int b = 0; b < enc.bits; ++b) {
    const Lit sb = stateBits[static_cast<std::size_t>(b)];
    acc = g.andLit(acc, enc.codeBit(s, b) ? sb : aig::negate(sb));
  }
  return acc;
}

Lit validCode(Aig& g, const synth::Encoding& enc,
              const std::vector<Lit>& stateBits) {
  Lit valid = kLitFalse;
  for (std::size_t s = 0; s < enc.codeOf.size(); ++s) {
    valid = g.orLit(valid, stateMatch(g, enc, stateBits, static_cast<int>(s)));
  }
  return valid;
}

Lit guardLit(Aig& g, const fsm::Guard& guard, const InputResolver& inputOf) {
  Lit acc = kLitFalse;
  for (const fsm::GuardTerm& term : guard.terms()) {
    Lit t = kLitTrue;
    for (const auto& [sig, positive] : term.literals) {
      const Lit in = inputOf(sig);
      t = g.andLit(t, positive ? in : aig::negate(in));
    }
    acc = g.orLit(acc, t);
  }
  return acc;
}

FnMap fsmFunctions(Aig& g, const fsm::Fsm& f, const synth::Encoding& enc,
                   const std::vector<Lit>& stateBits,
                   const InputResolver& inputOf) {
  std::vector<Lit> ns(static_cast<std::size_t>(enc.bits), kLitFalse);
  std::map<std::string, Lit> out;
  for (const std::string& o : f.outputs()) out[o] = kLitFalse;
  for (const fsm::Transition& t : f.transitions()) {
    const Lit guard = guardLit(g, t.guard, inputOf);
    const Lit fire = g.andLit(stateMatch(g, enc, stateBits, t.from), guard);
    for (int b = 0; b < enc.bits; ++b) {
      if (enc.codeBit(t.to, b)) {
        ns[static_cast<std::size_t>(b)] =
            g.orLit(ns[static_cast<std::size_t>(b)], fire);
      }
    }
    for (const std::string& o : t.outputs) out[o] = g.orLit(out[o], fire);
  }
  FnMap fns;
  for (int b = 0; b < enc.bits; ++b) {
    fns.emplace_back(numbered("ns", b), ns[static_cast<std::size_t>(b)]);
  }
  for (const std::string& o : f.outputs()) fns.emplace_back(o, out.at(o));
  return fns;
}

FnMap rtlFsmFunctions(Aig& g, const fsm::Fsm& f, const synth::Encoding& enc,
                      const std::vector<Lit>& stateBits,
                      const InputResolver& inputOf) {
  const Lit valid = validCode(g, enc, stateBits);
  FnMap fns = fsmFunctions(g, f, enc, stateBits, inputOf);
  for (int b = 0; b < enc.bits; ++b) {
    Lit& ns = fns[static_cast<std::size_t>(b)].second;
    if (enc.codeBit(f.initial(), b)) ns = g.orLit(ns, aig::negate(valid));
  }
  return fns;
}

Lit latchLevel(Aig& g, Lit held, Lit pulse) { return g.orLit(held, pulse); }

Lit latchNext(Aig& g, Lit held, Lit pulse, Lit clear) {
  return g.andLit(aig::negate(clear), g.orLit(pulse, held));
}

NetworkCones networkStep(Aig& g, const fsm::DistributedControlUnit& dcu,
                         const std::vector<synth::Encoding>& encs,
                         const std::vector<std::vector<Lit>>& stateBits,
                         const std::map<std::string, Lit>& held,
                         const InputResolver& externalOf) {
  const std::size_t n = dcu.controllers.size();
  NetworkCones out;
  out.fns.resize(n);
  out.reads.resize(n);
  std::map<std::string, Lit> silent;
  for (const auto& [sig, producer] : dcu.producerOf) silent[sig] = kLitFalse;
  out.pulse = silent;
  for (int round = 0; round < fsm::kPulseFixpointIterations; ++round) {
    out.prevPulse = std::move(out.pulse);
    out.pulse = silent;
    for (std::size_t i = 0; i < n; ++i) {
      const fsm::Fsm& f = dcu.controllers[i].fsm;
      std::map<std::string, Lit>& reads = out.reads[i];
      reads.clear();
      for (const std::string& in : f.inputs()) {
        const auto pulse = out.prevPulse.find(in);
        if (pulse == out.prevPulse.end()) {
          reads[in] = externalOf(in);
          continue;
        }
        const auto latch = held.find(in);
        reads[in] = latch == held.end()
                        ? pulse->second
                        : latchLevel(g, latch->second, pulse->second);
      }
      out.fns[i] = rtlFsmFunctions(
          g, f, encs[i], stateBits[i],
          [&](const std::string& sig) { return reads.at(sig); });
      for (std::size_t o = static_cast<std::size_t>(encs[i].bits);
           o < out.fns[i].size(); ++o) {
        const auto& [name, lit] = out.fns[i][o];
        const auto emitted = out.pulse.find(name);
        if (emitted != out.pulse.end()) {
          emitted->second = g.orLit(emitted->second, lit);
        }
      }
    }
  }
  return out;
}

ControllerContext::ControllerContext(const fsm::Fsm& f,
                                     synth::EncodingStyle style)
    : fsm(&f), enc(synth::encodeStates(f, style)) {
  for (int b = 0; b < enc.bits; ++b) {
    stateBits.push_back(g.addInput("state" + std::to_string(b)));
  }
  for (const std::string& in : f.inputs()) {
    inputOf.emplace(in, g.addInput(in));
  }
  valid = validCode(g, enc, stateBits);
}

// --- representation 1: the FSM specification -------------------------------

FnMap specFunctions(ControllerContext& ctx) {
  return fsmFunctions(
      ctx.g, *ctx.fsm, ctx.enc, ctx.stateBits,
      [&](const std::string& sig) { return ctx.inputOf.at(sig); });
}

// --- representation 2: the minimized two-level covers ----------------------

Lit coverLit(ControllerContext& ctx, const logic::Cover& cover) {
  // Cover variable order (synth/extract.hpp): state bits LSB first, then
  // the declared input signals.
  Lit acc = kLitFalse;
  for (const logic::Cube& cube : cover.cubes()) {
    Lit term = kLitTrue;
    for (int v = 0; v < cover.numVars(); ++v) {
      if (!cube.hasLiteral(v)) continue;
      Lit var;
      if (v < ctx.enc.bits) {
        var = ctx.stateBits[static_cast<std::size_t>(v)];
      } else {
        var = ctx.inputOf.at(
            ctx.fsm->inputs()[static_cast<std::size_t>(v - ctx.enc.bits)]);
      }
      term = ctx.g.andLit(term, cube.literalPositive(v) ? var : aig::negate(var));
    }
    acc = ctx.g.orLit(acc, term);
  }
  return acc;
}

FnMap coverFunctions(ControllerContext& ctx, const synth::SynthesizedFsm& syn) {
  FnMap fns;
  for (std::size_t b = 0; b < syn.nextStateLogic.size(); ++b) {
    fns.emplace_back("ns" + std::to_string(b),
                     coverLit(ctx, syn.nextStateLogic[b]));
  }
  for (std::size_t o = 0; o < syn.outputLogic.size(); ++o) {
    fns.emplace_back(ctx.fsm->outputs()[o], coverLit(ctx, syn.outputLogic[o]));
  }
  return fns;
}

// --- representation 3: the gate netlist ------------------------------------

FnMap netlistFunctions(ControllerContext& ctx, const netlist::Netlist& net) {
  std::vector<Lit> value(net.numGates(), kLitFalse);
  for (netlist::NetId i = 0; i < net.numGates(); ++i) {
    const netlist::Gate& gate = net.gate(i);
    switch (gate.kind) {
      case netlist::GateKind::Input: {
        Lit in = ctx.g.findInput(gate.name);
        // An input the spec does not know becomes a fresh free variable, so
        // any dependence on it surfaces as a counterexample.
        if (in == kLitFalse) in = ctx.g.addInput(gate.name);
        value[i] = in;
        break;
      }
      case netlist::GateKind::Const0:
        value[i] = kLitFalse;
        break;
      case netlist::GateKind::Const1:
        value[i] = kLitTrue;
        break;
      case netlist::GateKind::Inv:
        value[i] = aig::negate(value[gate.fanins[0]]);
        break;
      case netlist::GateKind::And:
      case netlist::GateKind::Or: {
        std::vector<Lit> fanins;
        for (const netlist::NetId f : gate.fanins) fanins.push_back(value[f]);
        value[i] = gate.kind == netlist::GateKind::And ? ctx.g.andN(fanins)
                                                       : ctx.g.orN(fanins);
        break;
      }
    }
  }
  FnMap fns;
  for (const auto& [name, id] : net.outputs()) fns.emplace_back(name, value[id]);
  return fns;
}

// --- representation 4: the reparsed emitted Verilog ------------------------

SymbolicEval::SymbolicEval(Aig& g, const vsim::Module& m)
    : g_(g), module_(m) {
  for (const vsim::NetDecl& d : m.nets) width_[d.name] = d.width;
}

int SymbolicEval::widthOf(const std::string& name) const {
  const auto it = width_.find(name);
  return it == width_.end() ? 1 : it->second;
}

void SymbolicEval::runCombinational(Env& env) {
  for (const vsim::NetDecl& d : module_.nets) {
    if (d.init) env[d.name] = resize(eval(*d.init, env), widthOf(d.name));
  }
  for (const vsim::ContinuousAssign& a : module_.assigns) {
    env[a.lhs] = resize(eval(*a.rhs, env), widthOf(a.lhs));
  }
  for (const vsim::AlwaysBlock& blk : module_.always) {
    if (!blk.sequential) exec(blk.body, env);
  }
}

void SymbolicEval::runSequential(Env& env) {
  for (const vsim::AlwaysBlock& blk : module_.always) {
    if (blk.sequential) exec(blk.body, env);
  }
}

Lit SymbolicEval::nonzero(const std::vector<Lit>& bits) { return g_.orN(bits); }

std::vector<Lit> SymbolicEval::eval(const vsim::Expr& e, const Env& env) {
  switch (e.kind) {
    case vsim::ExprKind::Const: {
      const int w = e.width > 0 ? e.width
                                : std::max(1, 64 - std::countl_zero(
                                                    e.value | 1ull));
      std::vector<Lit> bits;
      for (int b = 0; b < w; ++b) {
        bits.push_back((e.value >> b) & 1ull ? kLitTrue : kLitFalse);
      }
      return bits;
    }
    case vsim::ExprKind::Ref: {
      const auto lp = module_.localparams.find(e.name);
      if (lp != module_.localparams.end()) {
        vsim::Expr c;
        c.kind = vsim::ExprKind::Const;
        c.value = lp->second;
        return eval(c, env);
      }
      const auto it = env.find(e.name);
      TAUHLS_CHECK(it != env.end(),
                   "symbolic evaluation: unbound signal '" + e.name + "'");
      return it->second;
    }
    case vsim::ExprKind::Not:
      return {aig::negate(nonzero(eval(*e.args[0], env)))};
    case vsim::ExprKind::And:
      return {g_.andLit(nonzero(eval(*e.args[0], env)),
                        nonzero(eval(*e.args[1], env)))};
    case vsim::ExprKind::Or:
      return {g_.orLit(nonzero(eval(*e.args[0], env)),
                       nonzero(eval(*e.args[1], env)))};
    case vsim::ExprKind::Xor:
      return {g_.xorLit(nonzero(eval(*e.args[0], env)),
                        nonzero(eval(*e.args[1], env)))};
    case vsim::ExprKind::Eq:
    case vsim::ExprKind::NotEq: {
      std::vector<Lit> a = eval(*e.args[0], env);
      std::vector<Lit> b = eval(*e.args[1], env);
      const std::size_t w = std::max(a.size(), b.size());
      const Lit eq = g_.eqVec(resize(a, static_cast<int>(w)),
                              resize(b, static_cast<int>(w)));
      return {e.kind == vsim::ExprKind::Eq ? eq : aig::negate(eq)};
    }
    case vsim::ExprKind::Cond: {
      const Lit sel = nonzero(eval(*e.args[0], env));
      std::vector<Lit> t = eval(*e.args[1], env);
      std::vector<Lit> f = eval(*e.args[2], env);
      const std::size_t w = std::max(t.size(), f.size());
      t = resize(t, static_cast<int>(w));
      f = resize(f, static_cast<int>(w));
      std::vector<Lit> bits;
      for (std::size_t b = 0; b < w; ++b) {
        bits.push_back(g_.muxLit(sel, t[b], f[b]));
      }
      return bits;
    }
    case vsim::ExprKind::Concat: {
      // args are MSB first; the result vector is LSB first.
      std::vector<Lit> bits;
      for (std::size_t i = e.args.size(); i > 0; --i) {
        const std::vector<Lit> part = eval(*e.args[i - 1], env);
        bits.insert(bits.end(), part.begin(), part.end());
      }
      return bits;
    }
    case vsim::ExprKind::RedAnd:
      return {g_.andN(eval(*e.args[0], env))};
    case vsim::ExprKind::RedOr:
      return {g_.orN(eval(*e.args[0], env))};
    case vsim::ExprKind::RedXor: {
      Lit acc = kLitFalse;
      for (const Lit b : eval(*e.args[0], env)) acc = g_.xorLit(acc, b);
      return {acc};
    }
  }
  TAUHLS_FAIL("symbolic evaluation: unknown expression kind");
}

std::vector<Lit> SymbolicEval::resize(std::vector<Lit> bits, int width) {
  bits.resize(static_cast<std::size_t>(width), kLitFalse);  // zero-extend
  return bits;
}

void SymbolicEval::exec(const std::vector<vsim::StmtPtr>& stmts, Env& env) {
  for (const vsim::StmtPtr& s : stmts) {
    switch (s->kind) {
      case vsim::StmtKind::Assign:
        env[s->lhs] = resize(eval(*s->rhs, env), widthOf(s->lhs));
        break;
      case vsim::StmtKind::If: {
        const Lit cond = nonzero(eval(*s->condition, env));
        Env thenEnv = env;
        exec(s->thenBody, thenEnv);
        Env elseEnv = env;
        exec(s->elseBody, elseEnv);
        mergeEnv(cond, thenEnv, elseEnv, env);
        break;
      }
      case vsim::StmtKind::Case: {
        const std::vector<Lit> subject = eval(*s->subject, env);
        const vsim::CaseArm* defaultArm = nullptr;
        for (const vsim::CaseArm& arm : s->arms) {
          if (!arm.label) defaultArm = &arm;
        }
        execArms(s->arms, 0, subject, defaultArm, env);
        break;
      }
    }
  }
}

void SymbolicEval::execArms(const std::vector<vsim::CaseArm>& arms,
                            std::size_t idx, const std::vector<Lit>& subject,
                            const vsim::CaseArm* defaultArm, Env& env) {
  while (idx < arms.size() && !arms[idx].label) ++idx;
  if (idx == arms.size()) {
    if (defaultArm != nullptr) exec(defaultArm->body, env);
    return;
  }
  std::vector<Lit> label = eval(*arms[idx].label, env);
  const std::size_t w = std::max(subject.size(), label.size());
  std::vector<Lit> subj = subject;
  const Lit cond = g_.eqVec(resize(std::move(subj), static_cast<int>(w)),
                            resize(std::move(label), static_cast<int>(w)));
  Env thenEnv = env;
  exec(arms[idx].body, thenEnv);
  Env elseEnv = env;
  execArms(arms, idx + 1, subject, defaultArm, elseEnv);
  mergeEnv(cond, thenEnv, elseEnv, env);
}

void SymbolicEval::mergeEnv(Lit cond, const Env& thenEnv, const Env& elseEnv,
                            Env& out) {
  Env merged;
  for (const Env* side : {&thenEnv, &elseEnv}) {
    for (const auto& [name, bits] : *side) {
      if (merged.contains(name)) continue;
      const auto t = thenEnv.find(name);
      const auto f = elseEnv.find(name);
      const std::vector<Lit> zero(bits.size(), kLitFalse);
      const std::vector<Lit>& tb = t != thenEnv.end() ? t->second : zero;
      const std::vector<Lit>& fb = f != elseEnv.end() ? f->second : zero;
      std::vector<Lit> mb;
      for (std::size_t b = 0; b < bits.size(); ++b) {
        const Lit tl = b < tb.size() ? tb[b] : kLitFalse;
        const Lit fl = b < fb.size() ? fb[b] : kLitFalse;
        mb.push_back(g_.muxLit(cond, tl, fl));
      }
      merged[name] = std::move(mb);
    }
  }
  out = std::move(merged);
}

FnMap rtlFunctions(ControllerContext& ctx, const vsim::Module& m) {
  SymbolicEval eval(ctx.g, m);
  SymbolicEval::Env env;
  for (const vsim::Port& p : m.ports) {
    if (p.dir != vsim::PortDir::Input || p.name == "clk" || p.name == "rst") {
      continue;
    }
    const auto it = ctx.inputOf.find(p.name);
    env[p.name] = {it != ctx.inputOf.end() ? it->second
                                           : ctx.g.addInput("rtl_" + p.name)};
  }
  env["state"] = ctx.stateBits;
  eval.runCombinational(env);
  const auto ns = env.find("state_next");
  TAUHLS_CHECK(ns != env.end(),
               "emitted controller lacks a state_next assignment");
  FnMap fns;
  for (int b = 0; b < ctx.enc.bits; ++b) {
    const std::size_t sb = static_cast<std::size_t>(b);
    fns.emplace_back("ns" + std::to_string(b),
                     sb < ns->second.size() ? ns->second[sb] : kLitFalse);
  }
  for (const std::string& o : ctx.fsm->outputs()) {
    const auto it = env.find(o);
    TAUHLS_CHECK(it != env.end(),
                 "emitted controller never assigns output '" + o + "'");
    fns.emplace_back(o, eval.nonzero(it->second));
  }
  return fns;
}

// --- counterexample decoding ------------------------------------------------

std::string describeCounterexample(const ControllerContext& ctx,
                                   const aig::CecResult& r) {
  std::uint64_t code = 0;
  std::string inputs;
  for (const auto& [name, value] : r.counterexample) {
    if (name.starts_with("state") && name.size() > 5 &&
        name.find_first_not_of("0123456789", 5) == std::string::npos) {
      if (value) code |= std::uint64_t{1} << std::stoi(name.substr(5));
      continue;
    }
    if (!inputs.empty()) inputs += ", ";
    inputs += name + "=" + (value ? "1" : "0");
  }
  const int state = ctx.enc.stateOf(code);
  std::string out = "state=";
  out += state >= 0 ? ctx.fsm->stateName(state)
                    : "<code " + std::to_string(code) + ">";
  if (!inputs.empty()) out += ", " + inputs;
  return out;
}

}  // namespace tauhls::verify::lowering
