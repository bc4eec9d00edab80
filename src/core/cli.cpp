#include "core/cli.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "core/flow.hpp"
#include "core/hier_flow.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/store.hpp"
#include "dfg/dot.hpp"
#include "dfg/textio.hpp"
#include "core/json.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/kiss.hpp"
#include "rtl/testbench.hpp"
#include "sim/interp.hpp"
#include "verify/equiv_check.hpp"
#include "verify/symbolic_check.hpp"
#include "verify/verify.hpp"
#include "verify/xprop_check.hpp"

namespace tauhls::core {

std::string cliHelp() {
  return
      "usage: tauhlsc [flow] <design.dfg> [options]\n"
      "\n"
      "Builds a distributed synchronous control unit (DATE'03 Algorithm 1)\n"
      "for the dataflow graph in <design.dfg> (see dfg/textio.hpp grammar).\n"
      "The flow runs as a declarative pass pipeline (docs/PIPELINE.md); only\n"
      "the passes the requested outputs need actually execute.\n"
      "\n"
      "Hierarchical designs (`loop N { }` / `if name { } else { }` blocks)\n"
      "run the composed flow: one Algorithm-1 controller network per leaf\n"
      "region plus a region sequencer, with composed latency statistics.\n"
      "Outputs that have no composed form yet (--verilog, --testbench,\n"
      "--json, --kiss, --table1, --cent-fsm) are rejected with a diagnostic.\n"
      "\n"
      "options:\n"
      "  --branches SPEC   branch per conditional region path for the\n"
      "                    composed statistics, e.g. s2=then,s3_l_s0=else;\n"
      "                    unlisted conditionals take the then branch\n"
      "  --alloc SPEC      units per class, e.g. mult=2,add=1,sub=1\n"
      "                    (classes: mult add sub div logic; omitted classes\n"
      "                    get full concurrency)\n"
      "  --p LIST          SD-ratio sweep, e.g. 0.9,0.7,0.5\n"
      "  --strategy S      leftedge (default) | clique\n"
      "  --encoding E      controller state encoding: binary (default) |\n"
      "                    onehot (area model, equivalence and X checks)\n"
      "  --no-signal-opt   keep unconsumed completion outputs\n"
      "  --model-check E   controller model-check engine (MDL rules):\n"
      "                    explicit (default) = bounded product exploration,\n"
      "                    symbolic = BMC + k-induction over an AIG (complete\n"
      "                    verdicts, no state bound), auto = explicit first,\n"
      "                    symbolic rerun when it degrades to MDL007\n"
      "  --max-states N    explicit-engine product-configuration bound before\n"
      "                    the check degrades to MDL007 (default: 200000 for\n"
      "                    lint, 50000 for flow)\n"
      "  --cent-fsm        also build the explicit CENT-FSM product\n"
      "  --table1          print the area report\n"
      "  --no-table2       skip the latency report\n"
      "  --verilog FILE    write the RTL package\n"
      "  --testbench FILE  write a self-checking testbench (all-SD trace)\n"
      "  --json FILE       write the full report as JSON\n"
      "  --kiss PREFIX     write PREFIX_<controller>.kiss2 per controller\n"
      "  --dot FILE        write the scheduled DFG in Graphviz DOT\n"
      "  --trace-json FILE write a chrome://tracing-compatible JSON trace of\n"
      "                    every executed pipeline pass (wall time, cache\n"
      "                    hit tier memory/disk/miss, artifact sizes); open\n"
      "                    in Perfetto or chrome://tracing\n"
      "  --store DIR       persistent artifact store: pass results are\n"
      "                    written as content-addressed blobs under DIR and\n"
      "                    reused by later runs, even across processes\n"
      "                    (lookup order: memory, disk, recompute)\n"
      "  --store-max-bytes N  size bound for DIR; least-recently-used blobs\n"
      "                    are evicted first (default 0 = unbounded)\n"
      "  --threads N       worker threads for the latency sweeps (default:\n"
      "                    TAUHLS_THREADS env var, else all hardware threads;\n"
      "                    results are identical for every N)\n"
      "  --help            this text\n"
      "\n"
      "subcommand: tauhlsc lint (<design.dfg> | --benchmarks) [options]\n"
      "\n"
      "Runs the static design-rule checker and controller model check\n"
      "(src/verify/, rules DFG*/SCH*/FSM*/MDL*/NET*) over the flow's\n"
      "artifacts without simulating.  Exits 1 when any error-severity\n"
      "diagnostic fires, 0 otherwise.\n"
      "\n"
      "  --benchmarks      lint every built-in paper benchmark with its\n"
      "                    Table 2 allocation instead of an input file\n"
      "  --equiv           also prove each controller's synthesis chain\n"
      "                    equivalent (spec = cover = netlist = emitted RTL)\n"
      "                    with a SAT miter per function (rules EQV*)\n"
      "  --timing          also run static timing analysis over every\n"
      "                    controller netlist against CC_TAU (rules TIM*)\n"
      "  --xprop           also run the X-propagation / reset-robustness\n"
      "                    analysis (ternary power-on simulation + RTL\n"
      "                    ternary replay, rules XPR*) and the don't-care\n"
      "                    soundness proof of the minimized covers (SAT +\n"
      "                    k-induction, rules DCS*)\n"
      "  --only RULES      keep only the listed rule codes (comma list,\n"
      "                    e.g. XPR001,DCS002); filtered-out rules that\n"
      "                    fired are reported as skipped in the JSON\n"
      "  --lint-json FILE  also write all diagnostics as JSON\n"
      "                    (schema \"tauhls-lint\", version 5, with\n"
      "                    per-rule counts, SAT cost, per-property symbolic\n"
      "                    and xprop verdicts, and skipped rules)\n"
      "  (--alloc, --strategy, --encoding, --no-signal-opt, --model-check,\n"
      "  --max-states, --store and --trace-json apply as above; lint\n"
      "  evaluates only the verification passes, never the latency or area\n"
      "  model)\n"
      "\n"
      "subcommand: tauhlsc cache (stat | gc) --store DIR [options]\n"
      "\n"
      "Inspect or garbage-collect a persistent artifact store.\n"
      "\n"
      "  stat              print the store report (blob count, bytes, hit\n"
      "                    counters) as schema-versioned JSON\n"
      "  gc                evict least-recently-used blobs until the store\n"
      "                    fits --max-bytes (0 = empty the store)\n"
      "  --max-bytes N     gc target size in bytes (default 0)\n"
      "  --json FILE       also write the JSON report to FILE\n";
}

sched::Allocation parseAllocationSpec(const std::string& spec) {
  sched::Allocation alloc;
  for (const std::string& part : split(spec, ',')) {
    const std::vector<std::string> kv = split(part, '=');
    TAUHLS_CHECK(kv.size() == 2, "malformed allocation entry '" + part + "'");
    dfg::ResourceClass cls;
    const std::string key = trim(kv[0]);
    if (key == "mult") cls = dfg::ResourceClass::Multiplier;
    else if (key == "add") cls = dfg::ResourceClass::Adder;
    else if (key == "sub") cls = dfg::ResourceClass::Subtractor;
    else if (key == "div") cls = dfg::ResourceClass::Divider;
    else if (key == "logic") cls = dfg::ResourceClass::Logic;
    else TAUHLS_FAIL("unknown resource class '" + key + "'");
    int count = 0;
    try {
      count = std::stoi(trim(kv[1]));
    } catch (const std::exception&) {
      TAUHLS_FAIL("invalid unit count in '" + part + "'");
    }
    TAUHLS_CHECK(count >= 1, "unit count must be >= 1 in '" + part + "'");
    alloc[cls] = count;
  }
  return alloc;
}

dfg::BranchChoices parseBranchesSpec(const std::string& spec) {
  dfg::BranchChoices choices;
  for (const std::string& part : split(spec, ',')) {
    const std::vector<std::string> kv = split(part, '=');
    TAUHLS_CHECK(kv.size() == 2, "malformed branch entry '" + part +
                                     "' (expected PATH=then|else)");
    const std::string value = trim(kv[1]);
    if (value == "then") choices[trim(kv[0])] = true;
    else if (value == "else") choices[trim(kv[0])] = false;
    else TAUHLS_FAIL("branch must be 'then' or 'else' in '" + part + "'");
  }
  return choices;
}

std::optional<CliOptions> parseCli(const std::vector<std::string>& args,
                                   std::string& error) {
  CliOptions o;
  auto needValue = [&](std::size_t& i) -> std::optional<std::string> {
    if (i + 1 >= args.size()) {
      error = "missing value after " + args[i];
      return std::nullopt;
    }
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      o.showHelp = true;
      return o;
    } else if (i == 0 && a == "lint") {
      o.lint = true;
    } else if (i == 0 && a == "flow") {
      // The default subcommand, accepted explicitly: `tauhlsc flow x.dfg`.
    } else if (i == 0 && a == "cache") {
      if (i + 1 >= args.size()) {
        error = "cache needs an action: stat or gc";
        return std::nullopt;
      }
      const std::string& action = args[++i];
      if (action == "stat") o.cacheStat = true;
      else if (action == "gc") o.cacheGc = true;
      else {
        error = "unknown cache action '" + action + "' (expected stat or gc)";
        return std::nullopt;
      }
    } else if (a == "--store") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      o.storeDir = *v;
    } else if (a == "--store-max-bytes" || a == "--max-bytes") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      if ((a == "--max-bytes") != (o.cacheStat || o.cacheGc)) {
        error = a == "--max-bytes"
                    ? "--max-bytes is only valid with the cache subcommand"
                    : "--store-max-bytes is not valid with the cache "
                      "subcommand (use --max-bytes)";
        return std::nullopt;
      }
      try {
        o.storeMaxBytes = std::stoull(*v);
      } catch (const std::exception&) {
        error = "invalid byte count '" + *v + "'";
        return std::nullopt;
      }
    } else if (a == "--benchmarks") {
      if (!o.lint) {
        error = "--benchmarks is only valid with the lint subcommand";
        return std::nullopt;
      }
      o.lintBenchmarks = true;
    } else if (a == "--equiv") {
      if (!o.lint) {
        error = "--equiv is only valid with the lint subcommand";
        return std::nullopt;
      }
      o.lintEquiv = true;
    } else if (a == "--timing") {
      if (!o.lint) {
        error = "--timing is only valid with the lint subcommand";
        return std::nullopt;
      }
      o.lintTiming = true;
    } else if (a == "--xprop") {
      if (!o.lint) {
        error = "--xprop is only valid with the lint subcommand";
        return std::nullopt;
      }
      o.lintXprop = true;
    } else if (a == "--only") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      if (!o.lint) {
        error = "--only is only valid with the lint subcommand";
        return std::nullopt;
      }
      o.lintOnly = *v;
    } else if (a == "--lint-json") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      if (!o.lint) {
        error = "--lint-json is only valid with the lint subcommand";
        return std::nullopt;
      }
      o.lintJsonPath = *v;
    } else if (a == "--alloc") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      try {
        o.allocation = parseAllocationSpec(*v);
      } catch (const Error& e) {
        error = e.what();
        return std::nullopt;
      }
    } else if (a == "--p") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      o.ps.clear();
      for (const std::string& p : split(*v, ',')) {
        try {
          o.ps.push_back(std::stod(p));
        } catch (const std::exception&) {
          error = "invalid P value '" + p + "'";
          return std::nullopt;
        }
      }
      if (o.ps.empty()) {
        error = "empty P list";
        return std::nullopt;
      }
    } else if (a == "--branches") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      try {
        parseBranchesSpec(*v);  // validate now, resolve against the design later
      } catch (const Error& e) {
        error = e.what();
        return std::nullopt;
      }
      o.branchesSpec = *v;
    } else if (a == "--strategy") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      if (*v == "leftedge") o.strategy = sched::BindingStrategy::LeftEdge;
      else if (*v == "clique") o.strategy = sched::BindingStrategy::CliqueCover;
      else {
        error = "unknown strategy '" + *v + "'";
        return std::nullopt;
      }
    } else if (a == "--encoding") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      if (*v == "binary") o.encoding = synth::EncodingStyle::Binary;
      else if (*v == "onehot") o.encoding = synth::EncodingStyle::OneHot;
      else {
        error = "unknown encoding '" + *v + "' (expected binary or onehot)";
        return std::nullopt;
      }
    } else if (a == "--model-check" || a.rfind("--model-check=", 0) == 0) {
      std::string v;
      if (a == "--model-check") {
        auto value = needValue(i);
        if (!value) return std::nullopt;
        v = *value;
      } else {
        v = a.substr(std::string("--model-check=").size());
      }
      if (v == "explicit") o.modelCheck = ModelCheckMode::Explicit;
      else if (v == "symbolic") o.modelCheck = ModelCheckMode::Symbolic;
      else if (v == "auto") o.modelCheck = ModelCheckMode::Auto;
      else {
        error = "unknown model-check engine '" + v +
                "' (expected explicit, symbolic or auto)";
        return std::nullopt;
      }
    } else if (a == "--max-states") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      std::size_t n = 0;
      try {
        n = std::stoull(*v);
      } catch (const std::exception&) {
        n = 0;
      }
      if (n < 1) {
        error = "invalid state bound '" + *v + "'";
        return std::nullopt;
      }
      o.maxStates = n;
    } else if (a == "--no-signal-opt") {
      o.signalOpt = false;
    } else if (a == "--cent-fsm") {
      o.centFsm = true;
    } else if (a == "--table1") {
      o.table1 = true;
    } else if (a == "--no-table2") {
      o.table2 = false;
    } else if (a == "--verilog") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      o.verilogPath = *v;
    } else if (a == "--testbench") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      o.testbenchPath = *v;
    } else if (a == "--json") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      if (o.cacheStat || o.cacheGc) o.storeJsonPath = *v;
      else o.jsonPath = *v;
    } else if (a == "--kiss") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      o.kissPrefix = *v;
    } else if (a == "--dot") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      o.dotPath = *v;
    } else if (a == "--trace-json") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      o.traceJsonPath = *v;
    } else if (a == "--threads") {
      auto v = needValue(i);
      if (!v) return std::nullopt;
      int n = 0;
      try {
        n = std::stoi(*v);
      } catch (const std::exception&) {
        n = 0;
      }
      if (n < 1) {
        error = "invalid thread count '" + *v + "'";
        return std::nullopt;
      }
      o.threads = n;
    } else if (!a.empty() && a[0] == '-') {
      error = "unknown option " + a;
      return std::nullopt;
    } else if (o.inputPath.empty()) {
      o.inputPath = a;
    } else {
      error = "unexpected extra argument " + a;
      return std::nullopt;
    }
  }
  if (o.cacheStat || o.cacheGc) {
    if (o.storeDir.empty()) {
      error = "cache needs --store DIR";
      return std::nullopt;
    }
    if (!o.inputPath.empty()) {
      error = "cache takes no input file";
      return std::nullopt;
    }
    return o;
  }
  if (o.inputPath.empty() && !o.lintBenchmarks) {
    error = "no input file (try --help)";
    return std::nullopt;
  }
  if (o.lintBenchmarks && !o.inputPath.empty()) {
    error = "lint takes either an input file or --benchmarks, not both";
    return std::nullopt;
  }
  return o;
}

namespace {

/// Build the artifact cache for one CLI invocation: always an in-memory
/// tier, plus the persistent disk tier when --store was given.
std::shared_ptr<ArtifactCache> makeCache(const CliOptions& options) {
  auto cache = std::make_shared<ArtifactCache>();
  if (!options.storeDir.empty()) {
    StoreOptions so;
    so.dir = options.storeDir;
    so.maxBytes = options.storeMaxBytes;
    cache->attachStore(std::make_shared<ArtifactStore>(so));
  }
  return cache;
}

/// `tauhlsc cache stat|gc`: inspect or shrink a persistent store without
/// running any flow.
int runCacheCommand(const CliOptions& options, std::ostream& out,
                    std::ostream& err) {
  try {
    StoreOptions so;
    so.dir = options.storeDir;
    ArtifactStore store(so);
    if (options.cacheGc) {
      const std::uint64_t evicted = store.gc(options.storeMaxBytes);
      out << "evicted " << evicted << " bytes (target "
          << options.storeMaxBytes << ")\n";
    }
    const std::string json = renderStoreJson(store.stats());
    out << json << "\n";
    if (!options.storeJsonPath.empty()) {
      std::ofstream j(options.storeJsonPath);
      TAUHLS_CHECK(static_cast<bool>(j),
                   "cannot open " + options.storeJsonPath);
      j << json << "\n";
    }
    return 0;
  } catch (const Error& e) {
    err << "tauhlsc: " << e.what() << "\n";
    return 1;
  }
}

/// Read and parse `path`; the design name is its basename sans extension.
dfg::RegionProgram readDesign(const std::string& path, std::string& name) {
  std::ifstream in(path);
  TAUHLS_CHECK(static_cast<bool>(in), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  name = path;
  if (auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  try {
    return dfg::parseProgram(buffer.str(), name);
  } catch (const dfg::ParseError& e) {
    // The design is named after the file's stem; the diagnostic names the
    // file itself.
    throw dfg::ParseError(path, e.line(), e.detail());
  }
}

/// Parse and validate `lint --only RULE[,RULE...]`; unknown codes are a CLI
/// error (better a hard failure than silently filtering everything out).
std::vector<std::string> parseOnlyCodes(const std::string& spec) {
  std::vector<std::string> codes;
  if (spec.empty()) return codes;
  for (const std::string& code : split(spec, ',')) {
    TAUHLS_CHECK(verify::findRule(code) != nullptr,
                 "--only: unknown rule code '" + code + "'");
    codes.push_back(code);
  }
  return codes;
}

/// Keep only diagnostics whose rule code is listed (empty list = keep all);
/// the codes of everything dropped accumulate in `skippedCodes` so the JSON
/// can report what the filter suppressed.
verify::Report applyOnlyFilter(const verify::Report& report,
                               const std::vector<std::string>& codes,
                               std::set<std::string>& skippedCodes) {
  if (codes.empty()) return report;
  verify::Report kept;
  for (const verify::Diagnostic& d : report.diagnostics()) {
    if (std::find(codes.begin(), codes.end(), d.code) != codes.end()) {
      kept.addDiagnostic(d);
    } else {
      skippedCodes.insert(d.code);
    }
  }
  return kept;
}

/// Lint a hierarchical design through the composed flow (diagnostics only:
/// per-leaf pipelines, cross-region checks, sequencer handshake).
int runLintHierarchical(const CliOptions& options,
                        const dfg::RegionProgram& program,
                        const std::string& name, std::ostream& out,
                        std::ostream& err) {
  if (options.lintTiming) {
    err << "tauhlsc: --timing has no composed form yet; lint the leaf "
           "regions as flat designs for TIM rules\n";
    return 1;
  }
  FlowConfig cfg;
  cfg.allocation = options.allocation;
  cfg.strategy = options.strategy;
  cfg.encoding = options.encoding;
  cfg.optimizeSignals = options.signalOpt;
  cfg.verifyMaxStates = options.maxStates ? options.maxStates : 200000;
  cfg.modelCheck = options.modelCheck;
  const std::vector<std::string> onlyCodes = parseOnlyCodes(options.lintOnly);
  HierFlowOptions ho;
  ho.branches = parseBranchesSpec(options.branchesSpec);
  ho.equivalence = options.lintEquiv;
  ho.xprop = options.lintXprop;
  ho.latency = false;    // diagnostics only
  ho.gateErrors = false; // report, don't throw; the exit code is the gate
  const HierFlowResult r =
      runHierFlow(program, cfg, ho, makeCache(options));
  if (options.lintXprop) {
    out << "-- " << name << ": x-safety over " << r.xpropStats.controllers
        << " controllers, reset depth " << r.xpropStats.resetDepth << ", "
        << r.xpropStats.instances << " power-on instances; "
        << r.dcsStats.dcFunctions << "/" << r.dcsStats.functionsChecked
        << " covers exploit don't-cares --\n";
  }
  std::set<std::string> skippedCodes;
  const verify::Report filtered =
      applyOnlyFilter(r.diagnostics, onlyCodes, skippedCodes);
  out << "== " << name << " ==\n" << verify::renderText(filtered) << "\n";
  if (!options.lintJsonPath.empty()) {
    std::ofstream j(options.lintJsonPath);
    TAUHLS_CHECK(static_cast<bool>(j), "cannot open " + options.lintJsonPath);
    verify::JsonSections sections;
    for (const auto& [code, cost] : r.xpropStats.ruleCost()) {
      sections.satCost[code] += cost;
    }
    for (const auto& [code, cost] : r.dcsStats.ruleCost()) {
      sections.satCost[code] += cost;
    }
    sections.xprop = r.xpropStats.properties;
    sections.xprop.insert(sections.xprop.end(), r.dcsStats.properties.begin(),
                          r.dcsStats.properties.end());
    sections.skipped.assign(skippedCodes.begin(), skippedCodes.end());
    j << verify::renderJson(filtered, sections) << "\n";
    out << "wrote lint JSON to " << options.lintJsonPath << "\n";
  }
  return filtered.hasErrors() ? 1 : 0;
}

/// `tauhlsc lint`: run the static checker over one design or the whole
/// benchmark suite; exit 1 on any error-severity diagnostic.
///
/// Lint drives the pass pipeline demand-first: it requests only the
/// Diagnostics artifact, so the closure it evaluates is schedule ->
/// controllers -> verify -- the latency statistics and the area model never
/// run, no matter how large the design.
int runLint(const CliOptions& options, std::ostream& out, std::ostream& err) {
  try {
    std::vector<dfg::NamedBenchmark> designs;
    if (options.lintBenchmarks) {
      designs = dfg::paperTable2Suite();
    } else {
      std::string name;
      const dfg::RegionProgram program = readDesign(options.inputPath, name);
      if (!program.isFlat()) {
        return runLintHierarchical(options, program, name, out, err);
      }
      designs.push_back({name, program.root.body, options.allocation});
    }

    verify::Report all;
    verify::EquivStats allEquiv;
    std::map<std::string, verify::RuleCost> satCost;
    std::vector<verify::SymbolicPropertyStat> symbolicRows;
    std::vector<verify::XpropPropertyStat> xpropRows;
    const std::vector<std::string> onlyCodes = parseOnlyCodes(options.lintOnly);
    std::set<std::string> skippedCodes;
    std::vector<TracedRun> traces;
    const std::shared_ptr<ArtifactCache> cache = makeCache(options);
    for (const dfg::NamedBenchmark& b : designs) {
      FlowConfig cfg;
      cfg.allocation = b.allocation;
      cfg.strategy = options.strategy;
      cfg.encoding = options.encoding;
      cfg.optimizeSignals = options.signalOpt;
      // The CLI is a one-shot audit: use the full exploration budget rather
      // than the flow gate's fast default.
      cfg.verifyMaxStates = options.maxStates ? options.maxStates : 200000;
      cfg.modelCheck = options.modelCheck;
      FlowPipeline pipeline(b.graph, cfg, cache);
      verify::Report report = pipeline.modelCheckedDiagnostics();
      if (pipeline.has(Artifact::SymbolicCheck)) {
        const auto& sym =
            pipeline.get<verify::SymbolicArtifact>(Artifact::SymbolicCheck);
        std::size_t proved = 0;
        for (const verify::SymbolicProperty& p : sym.stats.properties) {
          if (p.verdict == verify::PropertyVerdict::Proved) ++proved;
        }
        out << "-- " << b.name << ": symbolic model check over "
            << sym.stats.controllers << " controllers, " << sym.stats.stateBits
            << " state bits, " << proved << "/" << sym.stats.properties.size()
            << " proved --\n";
        for (const auto& [code, cost] : sym.stats.ruleCost()) {
          satCost[code] += cost;
        }
        const std::vector<verify::SymbolicPropertyStat> rows =
            sym.stats.jsonStats();
        symbolicRows.insert(symbolicRows.end(), rows.begin(), rows.end());
      }
      if (options.lintEquiv) {
        const auto& eq =
            pipeline.get<verify::EquivalenceArtifact>(Artifact::Equivalence);
        report.merge(eq.report);
        allEquiv += eq.stats;
        out << "-- " << b.name << ": equivalence over " << eq.stats.controllers
            << " controllers, " << eq.stats.functionsCompared
            << " functions, " << eq.stats.satConflicts
            << " SAT conflicts --\n";
      }
      if (options.lintTiming) {
        report.merge(pipeline.get<verify::Report>(Artifact::Timing));
      }
      if (options.lintXprop) {
        const auto& xc = pipeline.get<verify::XCheckArtifact>(Artifact::XCheck);
        report.merge(xc.report);
        out << "-- " << b.name << ": x-safety over " << xc.xprop.controllers
            << " controllers, " << (xc.xprop.stateBits + xc.xprop.latchBits)
            << " registers, reset depth " << xc.xprop.resetDepth << ", "
            << xc.xprop.instances << " power-on instances; "
            << xc.dcs.dcFunctions << "/" << xc.dcs.functionsChecked
            << " covers exploit don't-cares --\n";
        for (const auto& [code, cost] : xc.xprop.ruleCost()) {
          satCost[code] += cost;
        }
        for (const auto& [code, cost] : xc.dcs.ruleCost()) {
          satCost[code] += cost;
        }
        xpropRows.insert(xpropRows.end(), xc.xprop.properties.begin(),
                         xc.xprop.properties.end());
        xpropRows.insert(xpropRows.end(), xc.dcs.properties.begin(),
                         xc.dcs.properties.end());
      }
      report = applyOnlyFilter(report, onlyCodes, skippedCodes);

      out << "== " << b.name << " ==\n" << verify::renderText(report) << "\n";
      all.merge(report);
      traces.push_back({b.name, pipeline.traceEvents()});
    }

    if (!options.lintJsonPath.empty()) {
      std::ofstream j(options.lintJsonPath);
      TAUHLS_CHECK(static_cast<bool>(j),
                   "cannot open " + options.lintJsonPath);
      for (const auto& [code, cost] : allEquiv.ruleCost) satCost[code] += cost;
      verify::JsonSections sections;
      sections.satCost = satCost;
      sections.symbolic = symbolicRows;
      sections.xprop = xpropRows;
      sections.skipped.assign(skippedCodes.begin(), skippedCodes.end());
      j << verify::renderJson(all, sections) << "\n";
      out << "wrote lint JSON to " << options.lintJsonPath << "\n";
    }
    if (!options.traceJsonPath.empty()) {
      std::ofstream t(options.traceJsonPath);
      TAUHLS_CHECK(static_cast<bool>(t),
                   "cannot open " + options.traceJsonPath);
      t << traceToChromeJson(traces);
      out << "wrote pipeline trace to " << options.traceJsonPath << "\n";
    }
    if (!options.storeDir.empty()) {
      out << "cache: " << formatCacheSummary(cache->stats()) << "\n";
    }
    return all.hasErrors() ? 1 : 0;
  } catch (const Error& e) {
    err << "tauhlsc: " << e.what() << "\n";
    return 1;
  }
}

/// `tauhlsc flow` on a hierarchical design: composed controllers + composed
/// Table 2.  Outputs with no composed form are rejected up front.
int runFlowHierarchical(const CliOptions& options,
                        const dfg::RegionProgram& program,
                        const std::string& name, std::ostream& out,
                        std::ostream& err) {
  const std::vector<std::pair<bool, const char*>> unsupported = {
      {options.centFsm, "--cent-fsm"},
      {options.table1, "--table1"},
      {!options.verilogPath.empty(), "--verilog"},
      {!options.testbenchPath.empty(), "--testbench"},
      {!options.jsonPath.empty(), "--json"},
      {!options.kissPrefix.empty(), "--kiss"},
      {!options.traceJsonPath.empty(), "--trace-json"},
  };
  for (const auto& [given, flag] : unsupported) {
    if (given) {
      err << "tauhlsc: " << flag
          << " has no composed form yet; run it on the flat leaf designs or "
             "drop the flag for hierarchical input\n";
      return 1;
    }
  }
  try {
    FlowConfig cfg;
    cfg.allocation = options.allocation;
    cfg.ps = options.ps;
    cfg.strategy = options.strategy;
    cfg.encoding = options.encoding;
    cfg.optimizeSignals = options.signalOpt;
    cfg.synthesizeArea = false;
    cfg.modelCheck = options.modelCheck;
    if (options.maxStates) cfg.verifyMaxStates = options.maxStates;
    HierFlowOptions ho;
    ho.branches = parseBranchesSpec(options.branchesSpec);
    const std::shared_ptr<ArtifactCache> cache = makeCache(options);
    const HierFlowResult r = runHierFlow(program, cfg, ho, cache);

    out << "tauhlsc: " << r.schedule.leaves.size() << " leaf regions, "
        << r.activations.size() << " activations, clock "
        << r.schedule.clockNs() << " ns\n\n";
    if (options.table2) out << formatComposedTable2Row(name, r) << "\n";

    if (!options.dotPath.empty()) {
      std::ofstream d(options.dotPath);
      TAUHLS_CHECK(static_cast<bool>(d), "cannot open " + options.dotPath);
      d << dfg::toDot(program);
      out << "wrote DOT to " << options.dotPath << "\n";
    }
    if (!options.storeDir.empty()) {
      out << "cache: " << formatCacheSummary(cache->stats()) << "\n";
    }
    return 0;
  } catch (const Error& e) {
    err << "tauhlsc: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int runCli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  if (options.showHelp) {
    out << cliHelp();
    return 0;
  }
  if (options.threads > 0) common::setGlobalThreadCount(options.threads);
  if (options.cacheStat || options.cacheGc) {
    return runCacheCommand(options, out, err);
  }
  if (options.lint) return runLint(options, out, err);

  try {
    std::string name;
    const dfg::RegionProgram program = readDesign(options.inputPath, name);
    if (!program.isFlat()) {
      return runFlowHierarchical(options, program, name, out, err);
    }
    const dfg::Dfg& graph = program.root.body;

    FlowConfig cfg;
    cfg.allocation = options.allocation;
    cfg.ps = options.ps;
    cfg.strategy = options.strategy;
    cfg.encoding = options.encoding;
    cfg.optimizeSignals = options.signalOpt;
    cfg.buildCentFsm = options.centFsm;
    cfg.synthesizeArea = options.table1;
    cfg.modelCheck = options.modelCheck;
    if (options.maxStates) cfg.verifyMaxStates = options.maxStates;
    FlowPipeline pipeline(graph, cfg, makeCache(options));
    const FlowResult r = pipeline.run();

    out << "tauhlsc: " << graph.numOps() << " ops, "
        << r.distributed.controllers.size() << " controllers, clock "
        << r.scheduled.clockNs << " ns, allocation "
        << formatAllocation(r.scheduled) << "\n\n";
    if (options.table2) out << formatTable2Row(name, r) << "\n";
    if (options.table1) out << formatTable1(r) << "\n";

    if (!options.verilogPath.empty()) {
      std::ofstream v(options.verilogPath);
      TAUHLS_CHECK(static_cast<bool>(v), "cannot open " + options.verilogPath);
      // Through the pipeline rather than emitVerilog() so the emission is a
      // traced, cacheable pass like every other stage.
      v << pipeline.get<std::string>(Artifact::Rtl);
      out << "wrote Verilog to " << options.verilogPath << "\n";
    }
    if (!options.testbenchPath.empty()) {
      const sim::SimTrace trace = sim::runDistributed(
          r.distributed, r.scheduled, sim::allShort(r.scheduled));
      std::ofstream tb(options.testbenchPath);
      TAUHLS_CHECK(static_cast<bool>(tb),
                   "cannot open " + options.testbenchPath);
      tb << rtl::emitTestbench(r.distributed, trace,
                               topModuleName(graph.name()));
      out << "wrote testbench to " << options.testbenchPath << "\n";
    }
    if (!options.jsonPath.empty()) {
      std::ofstream j(options.jsonPath);
      TAUHLS_CHECK(static_cast<bool>(j), "cannot open " + options.jsonPath);
      j << toJson(r) << "\n";
      out << "wrote JSON report to " << options.jsonPath << "\n";
    }
    if (!options.kissPrefix.empty()) {
      for (const fsm::UnitController& c : r.distributed.controllers) {
        const std::string path = options.kissPrefix + "_" + c.fsm.name() + ".kiss2";
        std::ofstream k(path);
        TAUHLS_CHECK(static_cast<bool>(k), "cannot open " + path);
        k << fsm::toKiss2(c.fsm);
        out << "wrote " << path << "\n";
      }
    }
    if (!options.dotPath.empty()) {
      std::ofstream d(options.dotPath);
      TAUHLS_CHECK(static_cast<bool>(d), "cannot open " + options.dotPath);
      d << dfg::toDot(r.scheduled.graph);
      out << "wrote DOT to " << options.dotPath << "\n";
    }
    if (!options.traceJsonPath.empty()) {
      std::ofstream t(options.traceJsonPath);
      TAUHLS_CHECK(static_cast<bool>(t),
                   "cannot open " + options.traceJsonPath);
      t << traceToChromeJson({{graph.name(), pipeline.traceEvents()}});
      out << "wrote pipeline trace to " << options.traceJsonPath << "\n";
    }
    return 0;
  } catch (const Error& e) {
    err << "tauhlsc: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace tauhls::core
