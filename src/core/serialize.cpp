#include "core/serialize.hpp"

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "verify/equiv_check.hpp"
#include "verify/symbolic_check.hpp"
#include "verify/xprop_check.hpp"

namespace tauhls::core {

namespace {

// ---------------------------------------------------------------------------
// Primitive little-endian writer/reader.  Both offer the same calls, so one
// layout function drives either: on the Writer each call writes the field, on
// the Reader it reads and assigns it.  The reader bounds-checks every access
// and throws tauhls::Error on violation; nothing here can read past the blob
// or allocate an attacker-controlled amount beyond the blob size.
// ---------------------------------------------------------------------------

class Writer {
 public:
  static constexpr bool kEncoding = true;

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  template <class E>
  void enumU8(E v, E /*maxInclusive*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  /// u64 element count, then `element(e)` for each element of `c`.
  template <class C, class F>
  void seq(const C& c, std::size_t /*minBytesPerElement*/, F&& element) {
    u64(c.size());
    for (const auto& e : c) element(e);
  }
  /// seq() with a u32 element count.
  template <class C, class F>
  void seq32(const C& c, std::size_t /*minBytesPerElement*/, F&& element) {
    u32(static_cast<std::uint32_t>(c.size()));
    for (const auto& e : c) element(e);
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  static constexpr bool kEncoding = false;

  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  bool boolean() {
    const std::uint8_t v = u8();
    TAUHLS_CHECK(v <= 1, "artifact blob: invalid boolean byte");
    return v != 0;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  /// Element-count prefix for a container about to be decoded element-wise;
  /// bounded by the remaining bytes so a corrupted length cannot trigger a
  /// huge up-front allocation (`minBytesPerElement` >= 1).
  std::size_t count(std::size_t minBytesPerElement = 1) {
    return bounded(u64(), minBytesPerElement);
  }

  // The Writer's calls, assigning what they read.
  void u32(std::uint32_t& v) { v = u32(); }
  /// Any 64-bit unsigned field (std::uint64_t or std::size_t).
  template <class T>
    requires(std::is_unsigned_v<T> && sizeof(T) == 8)
  void u64(T& v) { v = static_cast<T>(u64()); }
  void i32(std::int32_t& v) { v = i32(); }
  void boolean(bool& v) { v = boolean(); }
  void f64(double& v) { v = f64(); }
  void str(std::string& s) { s = str(); }
  template <class E>
  void enumU8(E& v, E maxInclusive, const char* what) {
    const std::uint8_t raw = u8();
    TAUHLS_CHECK(raw <= static_cast<std::uint8_t>(maxInclusive),
                 std::string("artifact blob: out-of-range ") + what);
    v = static_cast<E>(raw);
  }
  /// Replaces `c` by count() elements, each decoded by `element(e)`:
  /// vectors in place, sets and maps through a temporary that is inserted.
  template <class C, class F>
  void seq(C& c, std::size_t minBytesPerElement, F&& element) {
    fill(c, count(minBytesPerElement), element);
  }
  template <class C, class F>
  void seq32(C& c, std::size_t minBytesPerElement, F&& element) {
    fill(c, bounded(u32(), minBytesPerElement), element);
  }

  void expectEnd() const {
    TAUHLS_CHECK(pos_ == size_, "artifact blob: trailing bytes after payload");
  }

 private:
  void need(std::uint64_t n) {
    TAUHLS_CHECK(n <= size_ - pos_, "artifact blob: truncated");
  }
  std::size_t bounded(std::uint64_t n, std::size_t minBytesPerElement) const {
    TAUHLS_CHECK(n <= (size_ - pos_) / minBytesPerElement,
                 "artifact blob: container length exceeds blob size");
    return static_cast<std::size_t>(n);
  }
  template <class C, class F>
  void fill(C& c, std::size_t n, F& element) {
    c.clear();
    if constexpr (requires { c.resize(n); }) {
      c.resize(n);
      for (auto& e : c) element(e);
    } else if constexpr (requires { typename C::mapped_type; }) {
      for (std::size_t i = 0; i < n; ++i) {
        std::pair<typename C::key_type, typename C::mapped_type> e;
        element(e);
        c[std::move(e.first)] = std::move(e.second);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        typename C::value_type e{};
        element(e);
        c.insert(std::move(e));
      }
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// `T` as a layout function over `Io` sees it: const when encoding.
template <class Io, class T>
using Field = std::conditional_t<Io::kEncoding, const T, T>;

// ---------------------------------------------------------------------------
// Per-type layouts.  Plain structs have one `layout(Io&, Field<Io, T>&)` that
// both encodes and decodes them.  Types with class invariants (Dfg, Binding,
// ResourceLibrary, Guard, Fsm, Report) keep an explicit pair: the encoder
// walks the public read API, the decoder rebuilds through the public
// mutation API, so every invariant is re-validated on the way in.
// ---------------------------------------------------------------------------

template <class Io>
void layout(Io& io, Field<Io, std::string>& s) {
  io.str(s);
}

void layout(Writer& w, const dfg::Dfg& g) {
  w.str(g.name());
  w.u64(g.numNodes());
  for (dfg::NodeId id = 0; id < g.numNodes(); ++id) {
    const dfg::Node& n = g.node(id);
    w.u8(static_cast<std::uint8_t>(n.kind));
    w.str(n.name);
    w.u64(n.operands.size());
    for (dfg::NodeId op : n.operands) w.u32(op);
  }
  w.u64(g.scheduleArcs().size());
  for (const dfg::ScheduleArc& arc : g.scheduleArcs()) {
    w.u32(arc.from);
    w.u32(arc.to);
  }
  w.u64(g.stateEdges().size());
  for (const dfg::ScheduleArc& edge : g.stateEdges()) {
    w.u32(edge.from);
    w.u32(edge.to);
  }
  w.u64(g.outputs().size());
  for (dfg::NodeId out : g.outputs()) w.u32(out);
}

void layout(Reader& r, dfg::Dfg& out) {
  dfg::Dfg g(r.str());
  const std::size_t numNodes = r.count();
  for (std::size_t i = 0; i < numNodes; ++i) {
    dfg::OpKind kind{};
    r.enumU8(kind, dfg::OpKind::Neg, "OpKind");
    const std::string name = r.str();
    const std::size_t numOperands = r.count(4);
    std::vector<dfg::NodeId> operands(numOperands);
    for (dfg::NodeId& op : operands) op = r.u32();
    const dfg::NodeId id =
        kind == dfg::OpKind::Input
            ? g.addInput(name)
            : g.addOp(kind, std::span<const dfg::NodeId>(operands), name);
    TAUHLS_CHECK(id == static_cast<dfg::NodeId>(i),
                 "artifact blob: non-dense DFG node ids");
  }
  const std::size_t numArcs = r.count(8);
  for (std::size_t i = 0; i < numArcs; ++i) {
    const dfg::NodeId from = r.u32();
    const dfg::NodeId to = r.u32();
    g.addScheduleArc(from, to);
  }
  const std::size_t numStateEdges = r.count(8);
  for (std::size_t i = 0; i < numStateEdges; ++i) {
    const dfg::NodeId from = r.u32();
    const dfg::NodeId to = r.u32();
    g.addStateEdge(from, to);
  }
  const std::size_t numOutputs = r.count(4);
  for (std::size_t i = 0; i < numOutputs; ++i) g.markOutput(r.u32());
  g.validate();
  out = std::move(g);
}

void layout(Writer& w, const sched::Binding& b) {
  w.u64(b.numUnits());
  for (int u = 0; u < static_cast<int>(b.numUnits()); ++u) {
    const sched::UnitInstance& unit = b.unit(u);
    w.u8(static_cast<std::uint8_t>(unit.cls));
    w.i32(unit.index);
    w.u64(b.sequenceOf(u).size());
    for (dfg::NodeId op : b.sequenceOf(u)) w.u32(op);
  }
}

void layout(Reader& r, sched::Binding& out) {
  sched::Binding b;
  const std::size_t numUnits = r.count();
  for (std::size_t u = 0; u < numUnits; ++u) {
    dfg::ResourceClass cls{};
    r.enumU8(cls, dfg::ResourceClass::Logic, "ResourceClass");
    const int index = r.i32();
    const int id = b.addUnit(cls, index);
    TAUHLS_CHECK(id == static_cast<int>(u),
                 "artifact blob: non-dense binding unit ids");
    const std::size_t seqLen = r.count(4);
    for (std::size_t i = 0; i < seqLen; ++i) b.assign(r.u32(), id);
  }
  out = std::move(b);
}

template <class Io>
void layout(Io& io, Field<Io, sched::StepSchedule>& s) {
  io.i32(s.numSteps);
  io.seq(s.stepOf, 4, [&](auto& step) { io.i32(step); });
}

template <class Io>
void layout(Io& io, Field<Io, sched::TaubmSchedule>& t) {
  io.seq(t.steps, 5, [&](auto& step) {
    io.i32(step.originalStep);
    io.boolean(step.split);
    io.seq(step.ops, 4, [&](auto& op) { io.u32(op); });
    io.seq(step.tauOps, 4, [&](auto& op) { io.u32(op); });
  });
}

void layout(Writer& w, const tau::ResourceLibrary& lib) {
  const std::vector<dfg::ResourceClass> classes = lib.classes();
  w.u64(classes.size());
  for (dfg::ResourceClass cls : classes) {
    const tau::UnitType& t = lib.typeFor(cls);
    w.str(t.name);
    w.u8(static_cast<std::uint8_t>(t.cls));
    w.boolean(t.telescopic);
    w.f64(t.shortDelayNs);
    w.f64(t.longDelayNs);
    w.f64(t.sdProbability);
  }
}

void layout(Reader& r, tau::ResourceLibrary& out) {
  tau::ResourceLibrary lib;
  const std::size_t numTypes = r.count();
  for (std::size_t i = 0; i < numTypes; ++i) {
    tau::UnitType t;
    t.name = r.str();
    r.enumU8(t.cls, dfg::ResourceClass::Logic, "ResourceClass");
    t.telescopic = r.boolean();
    t.shortDelayNs = r.f64();
    t.longDelayNs = r.f64();
    t.sdProbability = r.f64();
    tau::validateUnitType(t);
    lib.registerType(t);
  }
  out = std::move(lib);
}

void layout(Writer& w, const fsm::Guard& g) {
  w.u64(g.terms().size());
  for (const fsm::GuardTerm& term : g.terms()) {
    w.u64(term.literals.size());
    for (const auto& [signal, positive] : term.literals) {
      w.str(signal);
      w.boolean(positive);
    }
  }
}

void layout(Reader& r, fsm::Guard& out) {
  const std::size_t numTerms = r.count();
  fsm::Guard g = fsm::Guard::never();
  for (std::size_t t = 0; t < numTerms; ++t) {
    const std::size_t numLiterals = r.count(2);
    fsm::Guard term = fsm::Guard::always();
    for (std::size_t l = 0; l < numLiterals; ++l) {
      const std::string signal = r.str();
      const bool positive = r.boolean();
      term = term.conjoin(fsm::Guard::literal(signal, positive));
    }
    g = g.disjoin(term);
  }
  out = std::move(g);
}

void layout(Writer& w, const fsm::Fsm& f) {
  w.str(f.name());
  w.u64(f.numStates());
  for (int s = 0; s < static_cast<int>(f.numStates()); ++s) {
    w.str(f.stateName(s));
  }
  w.u64(f.inputs().size());
  for (const std::string& in : f.inputs()) w.str(in);
  w.u64(f.outputs().size());
  for (const std::string& out : f.outputs()) w.str(out);
  w.i32(f.initial());
  w.u64(f.transitions().size());
  for (const fsm::Transition& t : f.transitions()) {
    w.i32(t.from);
    w.i32(t.to);
    layout(w, t.guard);
    w.u64(t.outputs.size());
    for (const std::string& out : t.outputs) w.str(out);
  }
}

void layout(Reader& r, fsm::Fsm& out) {
  fsm::Fsm f(r.str());
  const std::size_t numStates = r.count();
  for (std::size_t s = 0; s < numStates; ++s) {
    const int id = f.addState(r.str());
    TAUHLS_CHECK(id == static_cast<int>(s),
                 "artifact blob: non-dense FSM state ids");
  }
  const std::size_t numInputs = r.count();
  for (std::size_t i = 0; i < numInputs; ++i) f.addInput(r.str());
  const std::size_t numOutputs = r.count();
  for (std::size_t i = 0; i < numOutputs; ++i) f.addOutput(r.str());
  const int initial = r.i32();
  if (numStates > 0) f.setInitial(initial);
  const std::size_t numTransitions = r.count(8);
  for (std::size_t t = 0; t < numTransitions; ++t) {
    const int from = r.i32();
    const int to = r.i32();
    fsm::Guard guard;
    layout(r, guard);
    const std::size_t outCount = r.count(8);
    std::vector<std::string> outputs(outCount);
    for (std::string& o : outputs) o = r.str();
    f.addTransition(from, to, std::move(guard), std::move(outputs));
  }
  out = std::move(f);
}

template <class Io>
void layout(Io& io, Field<Io, fsm::DistributedControlUnit>& dcu) {
  io.seq(dcu.controllers, 1, [&](auto& c) {
    io.i32(c.unitId);
    io.boolean(c.telescopic);
    layout(io, c.fsm);
    io.seq(c.ops, 4, [&](auto& op) { io.u32(op); });
    io.seq(c.latchedInputs, 8, [&](auto& s) { io.str(s); });
  });
  io.seq(dcu.externalInputs, 8, [&](auto& s) { io.str(s); });
  io.seq(dcu.producerOf, 1, [&](auto& entry) {
    io.str(entry.first);
    io.i32(entry.second);
  });
  io.seq(dcu.consumersOf, 1, [&](auto& entry) {
    io.str(entry.first);
    io.seq(entry.second, 4, [&](auto& c) { io.i32(c); });
  });
}

template <class Io>
void layout(Io& io, Field<Io, sched::ScheduledDfg>& s) {
  layout(io, s.graph);
  layout(io, s.binding);
  layout(io, s.steps);
  layout(io, s.taubm);
  layout(io, s.library);
  io.f64(s.clockNs);
}

template <class Io>
void layout(Io& io, Field<Io, sim::LatencyRow>& row) {
  io.f64(row.bestNs);
  io.f64(row.worstNs);
  io.seq(row.averageNs, 8, [&](auto& v) { io.f64(v); });
}

template <class Io>
void layout(Io& io, Field<Io, sim::LatencyComparison>& l) {
  io.seq(l.ps, 8, [&](auto& p) { io.f64(p); });
  layout(io, l.tau);
  layout(io, l.dist);
  io.seq(l.enhancementPercent, 8, [&](auto& e) { io.f64(e); });
}

void layout(Writer& w, const verify::Report& report) {
  w.u64(report.diagnostics().size());
  for (const verify::Diagnostic& d : report.diagnostics()) {
    w.str(d.code);
    w.str(d.artifact);
    w.str(d.where);
    w.str(d.message);
  }
}

void layout(Reader& r, verify::Report& out) {
  verify::Report report;
  const std::size_t numDiags = r.count();
  for (std::size_t i = 0; i < numDiags; ++i) {
    const std::string code = r.str();
    const std::string artifact = r.str();
    const std::string where = r.str();
    const std::string message = r.str();
    // Report::add re-resolves the severity from the rule registry, so a blob
    // can never smuggle in a severity the registry does not assign -- and it
    // throws on unknown codes, turning a corrupted code into a cache miss.
    report.add(code, artifact, where, message);
  }
  out = std::move(report);
}

template <class Io>
void layout(Io& io, Field<Io, synth::AreaRow>& row) {
  io.str(row.name);
  io.i32(row.inputs);
  io.i32(row.outputs);
  io.i32(row.states);
  io.i32(row.flipFlops);
  io.i32(row.combArea);
  io.i32(row.seqArea);
}

template <class Io>
void layout(Io& io, Field<Io, synth::DistributedAreaReport>& rep) {
  io.seq(rep.perController, 1, [&](auto& row) { layout(io, row); });
  layout(io, rep.total);
  io.i32(rep.completionLatches);
}

template <class Io>
void layout(Io& io, Field<Io, verify::RuleCost>& cost) {
  io.u64(cost.decisions);
  io.u64(cost.propagations);
  io.u64(cost.conflicts);
  io.u64(cost.learned);
  io.u64(cost.restarts);
  io.u64(cost.queries);
  io.u64(cost.simDischarged);
}

template <class Io>
void layout(Io& io, Field<Io, verify::EquivalenceArtifact>& art) {
  layout(io, art.report);
  io.i32(art.stats.controllers);
  io.i32(art.stats.functionsCompared);
  io.u64(art.stats.satConflicts);
  // Each entry: a rule code (8-byte length at least) and 7 u64 counters.
  io.seq32(art.stats.ruleCost, 64, [&](auto& entry) {
    io.str(entry.first);
    layout(io, entry.second);
  });
}

template <class Io>
void layout(Io& io, Field<Io, verify::SymbolicArtifact>& art) {
  layout(io, art.report);
  io.str(art.stats.artifact);
  io.u64(art.stats.controllers);
  io.u64(art.stats.stateBits);
  io.u64(art.stats.templateNodes);
  io.boolean(art.stats.invariantHolds);
  layout(io, art.stats.invariantCost);
  io.seq(art.stats.properties, 1, [&](auto& p) {
    io.str(p.rule);
    io.enumU8(p.verdict, verify::PropertyVerdict::Unknown, "PropertyVerdict");
    io.i32(p.depthReached);
    io.i32(p.inductionK);
    io.i32(p.cexLength);
    layout(io, p.cost);
  });
}

template <class Io>
void layout(Io& io, Field<Io, verify::XpropPropertyStat>& p) {
  io.str(p.artifact);
  io.str(p.rule);
  io.str(p.verdict);
  io.i32(p.depth);
  io.i32(p.cexCycle);
  io.u64(p.instances);
  io.u64(p.gateEvals);
  layout(io, p.cost);
}

template <class Io>
void layout(Io& io, Field<Io, verify::XCheckArtifact>& art) {
  const auto rows = [&](auto& properties) {
    io.seq(properties, 1, [&](auto& p) { layout(io, p); });
  };
  layout(io, art.report);
  io.str(art.xprop.artifact);
  io.u64(art.xprop.controllers);
  io.u64(art.xprop.stateBits);
  io.u64(art.xprop.latchBits);
  io.i32(art.xprop.resetDepth);
  io.u64(art.xprop.instances);
  io.u64(art.xprop.gateEvals);
  io.u64(art.xprop.rtlCycles);
  rows(art.xprop.properties);
  io.str(art.dcs.artifact);
  io.u64(art.dcs.controllers);
  io.u64(art.dcs.functionsChecked);
  io.u64(art.dcs.dcFunctions);
  rows(art.dcs.properties);
}

template <class Io>
void layout(Io& io, Field<Io, fsm::SignalOptStats>& s) {
  io.i32(s.removedOutputs);
  io.i32(s.keptOutputs);
}

/// A value to decode into; layout(Reader&, fsm::Fsm&) replaces the
/// placeholder, since fsm::Fsm alone has no default constructor.
template <class T>
T placeholder() {
  if constexpr (std::is_default_constructible_v<T>) {
    return T{};
  } else {
    return T(std::string());
  }
}

}  // namespace

std::vector<std::uint8_t> encodeArtifact(Artifact kind,
                                         const std::any& value) {
  Writer w;
  visitArtifactType(kind, [&](auto type) {
    using T = typename decltype(type)::type;
    const auto* ptr = std::any_cast<std::shared_ptr<const T>>(&value);
    TAUHLS_CHECK(ptr != nullptr && *ptr != nullptr,
                 "encodeArtifact: value does not hold the kind's artifact type");
    layout(w, **ptr);
  });
  return w.take();
}

std::any decodeArtifact(Artifact kind, const std::uint8_t* data,
                        std::size_t size) {
  Reader r(data, size);
  std::any result = visitArtifactType(kind, [&](auto type) -> std::any {
    using T = typename decltype(type)::type;
    T value = placeholder<T>();
    layout(r, value);
    return std::make_shared<const T>(std::move(value));
  });
  r.expectEnd();
  return result;
}

}  // namespace tauhls::core
