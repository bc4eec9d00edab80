#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "core/cli.hpp"
#include "core/flow.hpp"
#include "testutil.hpp"
#include "vsim/parser.hpp"

namespace tauhls::core {
namespace {

using dfg::ResourceClass;

TEST(CliParse, AllocationSpec) {
  sched::Allocation a = parseAllocationSpec("mult=2,add=1,sub=3");
  EXPECT_EQ(a.at(ResourceClass::Multiplier), 2);
  EXPECT_EQ(a.at(ResourceClass::Adder), 1);
  EXPECT_EQ(a.at(ResourceClass::Subtractor), 3);
  EXPECT_EQ(parseAllocationSpec("div=1,logic=2").at(ResourceClass::Divider), 1);
  EXPECT_THROW(parseAllocationSpec("mult=0"), Error);
  EXPECT_THROW(parseAllocationSpec("gpu=1"), Error);
  EXPECT_THROW(parseAllocationSpec("mult"), Error);
  EXPECT_THROW(parseAllocationSpec("mult=x"), Error);
}

TEST(CliParse, FullCommandLine) {
  std::string error;
  auto o = parseCli({"design.dfg", "--alloc", "mult=2,add=1", "--p", "0.9,0.5",
                     "--strategy", "clique", "--no-signal-opt", "--cent-fsm",
                     "--table1", "--no-table2", "--verilog", "out.v", "--kiss",
                     "pfx", "--dot", "g.dot"},
                    error);
  ASSERT_TRUE(o.has_value()) << error;
  EXPECT_EQ(o->inputPath, "design.dfg");
  EXPECT_EQ(o->allocation.at(ResourceClass::Multiplier), 2);
  EXPECT_EQ(o->ps, (std::vector<double>{0.9, 0.5}));
  EXPECT_EQ(o->strategy, sched::BindingStrategy::CliqueCover);
  EXPECT_FALSE(o->signalOpt);
  EXPECT_TRUE(o->centFsm);
  EXPECT_TRUE(o->table1);
  EXPECT_FALSE(o->table2);
  EXPECT_EQ(o->verilogPath, "out.v");
  EXPECT_EQ(o->kissPrefix, "pfx");
  EXPECT_EQ(o->dotPath, "g.dot");
}

TEST(CliParse, Defaults) {
  std::string error;
  auto o = parseCli({"x.dfg"}, error);
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->ps, (std::vector<double>{0.9, 0.7, 0.5}));
  EXPECT_EQ(o->strategy, sched::BindingStrategy::LeftEdge);
  EXPECT_TRUE(o->signalOpt);
  EXPECT_FALSE(o->table1);
  EXPECT_TRUE(o->table2);
  EXPECT_EQ(o->threads, 0);  // 0 = TAUHLS_THREADS / hardware default
}

TEST(CliParse, Threads) {
  std::string error;
  auto o = parseCli({"x.dfg", "--threads", "8"}, error);
  ASSERT_TRUE(o.has_value()) << error;
  EXPECT_EQ(o->threads, 8);
  EXPECT_FALSE(parseCli({"x.dfg", "--threads", "0"}, error).has_value());
  EXPECT_FALSE(parseCli({"x.dfg", "--threads", "-2"}, error).has_value());
  EXPECT_FALSE(parseCli({"x.dfg", "--threads", "lots"}, error).has_value());
  EXPECT_FALSE(parseCli({"x.dfg", "--threads"}, error).has_value());
}

TEST(CliParse, FlowSubcommandAndTraceJson) {
  std::string error;
  auto o = parseCli({"flow", "x.dfg", "--trace-json", "t.json"}, error);
  ASSERT_TRUE(o.has_value()) << error;
  EXPECT_EQ(o->inputPath, "x.dfg");
  EXPECT_EQ(o->traceJsonPath, "t.json");
  // First-position "flow" is always the subcommand, never an input path, so
  // on its own the design file is still missing.
  EXPECT_FALSE(parseCli({"flow"}, error).has_value());
  EXPECT_FALSE(parseCli({"x.dfg", "--trace-json"}, error).has_value());
}

TEST(CliParse, Errors) {
  std::string error;
  EXPECT_FALSE(parseCli({}, error).has_value());
  EXPECT_FALSE(parseCli({"--alloc"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--strategy", "magic"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--p", "abc"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "b.dfg"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--frobnicate"}, error).has_value());
}

TEST(CliParse, HelpShortCircuits) {
  std::string error;
  auto o = parseCli({"--help"}, error);
  ASSERT_TRUE(o.has_value());
  EXPECT_TRUE(o->showHelp);
  EXPECT_NE(cliHelp().find("--alloc"), std::string::npos);
}

/// Every file a CliRun case touches lives in its own test's directory; the
/// file names inside stay fixed because the design name is the input's stem.
class CliRun : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::testScratchDir();
    path_ = dir_ + "cli_test.dfg";
    std::ofstream f(path_);
    f << "in a, b, c, d\n"
         "m1 = a * b\n"
         "m2 = c * d\n"
         "s1 = m1 + m2\n"
         "out s1\n";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
  std::string path_;
};

TEST_F(CliRun, EndToEndReports) {
  CliOptions o;
  o.inputPath = path_;
  o.allocation = parseAllocationSpec("mult=2,add=1");
  o.table1 = true;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0);
  EXPECT_NE(out.str().find("LT_DIST"), std::string::npos);
  EXPECT_NE(out.str().find("DIST-FSM"), std::string::npos);
  EXPECT_TRUE(err.str().empty());
}

TEST_F(CliRun, WritesTestbench) {
  CliOptions o;
  o.inputPath = path_;
  o.testbenchPath = dir_ + "cli_test_tb.v";
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0);
  std::ifstream tb(o.testbenchPath);
  ASSERT_TRUE(tb.good());
  std::stringstream content;
  content << tb.rdbuf();
  EXPECT_NE(content.str().find("module dcu_cli_test_tb;"), std::string::npos);
  EXPECT_NE(content.str().find("$finish"), std::string::npos);
}

TEST_F(CliRun, WritesArtifacts) {
  CliOptions o;
  o.inputPath = path_;
  o.verilogPath = dir_ + "cli_test.v";
  o.kissPrefix = dir_ + "cli_test";
  o.dotPath = dir_ + "cli_test.dot";
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0);
  std::ifstream v(o.verilogPath);
  EXPECT_TRUE(v.good());
  std::string firstLine;
  std::getline(v, firstLine);
  EXPECT_NE(firstLine.find("tauhls"), std::string::npos);
  std::ifstream d(o.dotPath);
  EXPECT_TRUE(d.good());
  std::ifstream k(o.kissPrefix + "_D_FSM_mult1.kiss2");
  EXPECT_TRUE(k.good());
}

TEST_F(CliRun, WritesJson) {
  CliOptions o;
  o.inputPath = path_;
  o.jsonPath = dir_ + "cli_test.json";
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0);
  std::ifstream j(o.jsonPath);
  ASSERT_TRUE(j.good());
  std::stringstream content;
  content << j.rdbuf();
  EXPECT_NE(content.str().find("\"design\":\"cli_test\""), std::string::npos);
  EXPECT_NE(content.str().find("\"latency\":"), std::string::npos);
}

TEST_F(CliRun, WritesPipelineTrace) {
  CliOptions o;
  o.inputPath = path_;
  o.traceJsonPath = dir_ + "cli_test_trace.json";
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0);
  std::ifstream t(o.traceJsonPath);
  ASSERT_TRUE(t.good());
  std::stringstream content;
  content << t.rdbuf();
  EXPECT_NE(content.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.str().find("\"schedule\""), std::string::npos);
  EXPECT_NE(content.str().find("\"cache\""), std::string::npos);
  EXPECT_NE(out.str().find("wrote pipeline trace"), std::string::npos);
}

// A file stem that is not a Verilog identifier still names a legal top
// module: the flow's verify pass and the emitted package both re-parse.
TEST_F(CliRun, NonIdentifierDesignNameRunsTheRtlFlow) {
  const std::string path = dir_ + "fir-3.dfg";
  std::ofstream(path) << "in a, b, c, d\n"
                         "m1 = a * b\n"
                         "m2 = c * d\n"
                         "s1 = m1 + m2\n"
                         "out s1\n";
  std::string error;
  auto o = parseCli({"flow", path, "--verilog", dir_ + "fir-3.v"}, error);
  ASSERT_TRUE(o.has_value()) << error;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(*o, out, err), 0) << err.str();
  std::ifstream v(dir_ + "fir-3.v");
  std::stringstream rtl;
  rtl << v.rdbuf();
  const vsim::Design design = vsim::parseDesign(rtl.str());
  EXPECT_NE(design.findModule("dcu_fir_3"), nullptr);
  EXPECT_EQ(topModuleName("fir-3"), "dcu_fir_3");
  EXPECT_EQ(topModuleName("diffeq"), "dcu_diffeq");
}

// Malformed DFG text is an input diagnostic naming the file and line, not
// an internal failure.
TEST_F(CliRun, MalformedDfgReportsFileAndLine) {
  const std::string path = dir_ + "broken.dfg";
  std::ofstream(path) << "in a\n"
                         "x = a *\n"
                         "out x\n";
  CliOptions o;
  o.inputPath = path;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 1);
  EXPECT_NE(err.str().find(path + ": dfg parse error at line 2"), std::string::npos)
      << err.str();
  EXPECT_EQ(err.str().find("unreachable"), std::string::npos) << err.str();

  std::ofstream(path) << "in a\n"
                         "x = a + a\n"
                         "out y\n";
  std::ostringstream err2;
  EXPECT_EQ(runCli(o, out, err2), 1);
  EXPECT_NE(err2.str().find(path + ": dfg parse error at line 3: output 'y'"),
            std::string::npos)
      << err2.str();
  EXPECT_EQ(err2.str().find("unreachable"), std::string::npos) << err2.str();
}

TEST_F(CliRun, MissingFileFails) {
  CliOptions o;
  o.inputPath = "/nonexistent/nowhere.dfg";
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 1);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

TEST_F(CliRun, HelpMode) {
  CliOptions o;
  o.showHelp = true;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliParse, LintEquivAndTimingFlags) {
  std::string error;
  auto o = parseCli({"lint", "a.dfg", "--equiv", "--timing"}, error);
  ASSERT_TRUE(o.has_value());
  EXPECT_TRUE(o->lint);
  EXPECT_TRUE(o->lintEquiv);
  EXPECT_TRUE(o->lintTiming);
  // Outside the lint subcommand both flags are rejected.
  EXPECT_FALSE(parseCli({"a.dfg", "--equiv"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--timing"}, error).has_value());
  EXPECT_NE(cliHelp().find("--equiv"), std::string::npos);
  EXPECT_NE(cliHelp().find("--timing"), std::string::npos);
}

TEST_F(CliRun, LintEquivTimingEndToEnd) {
  CliOptions o;
  o.lint = true;
  o.lintEquiv = true;
  o.lintTiming = true;
  o.inputPath = path_;
  o.allocation = parseAllocationSpec("mult=2,add=1");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("EQV006"), std::string::npos);
  EXPECT_NE(out.str().find("TIM003"), std::string::npos);
  EXPECT_NE(out.str().find("SAT conflicts"), std::string::npos);
}

TEST_F(CliRun, LintJsonHasSchemaAndRuleCounts) {
  const std::string jsonPath = dir_ + "cli_lint.json";
  CliOptions o;
  o.lint = true;
  o.lintEquiv = true;
  o.lintTiming = true;
  o.inputPath = path_;
  o.allocation = parseAllocationSpec("mult=2,add=1");
  o.lintJsonPath = jsonPath;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0) << err.str();
  std::ifstream j(jsonPath);
  std::ostringstream buffer;
  buffer << j.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"schema\":\"tauhls-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"byRule\":"), std::string::npos);
  EXPECT_NE(json.find("\"EQV006\":"), std::string::npos);
  EXPECT_NE(json.find("\"satCost\":"), std::string::npos);
  EXPECT_NE(json.find("\"EQV001\":{\"queries\":"), std::string::npos);
  EXPECT_NE(json.find("\"TIM003\":"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":0"), std::string::npos);
  // Explicit mode never demands the symbolic pass: empty "symbolic" array.
  EXPECT_NE(json.find("\"symbolic\":[]"), std::string::npos);
}

TEST(CliParse, ModelCheckAndMaxStatesFlags) {
  std::string error;
  auto o = parseCli({"lint", "a.dfg", "--model-check", "symbolic"}, error);
  ASSERT_TRUE(o.has_value()) << error;
  EXPECT_EQ(o->modelCheck, ModelCheckMode::Symbolic);
  // The --model-check=VALUE spelling is equivalent.
  o = parseCli({"lint", "a.dfg", "--model-check=auto"}, error);
  ASSERT_TRUE(o.has_value()) << error;
  EXPECT_EQ(o->modelCheck, ModelCheckMode::Auto);
  o = parseCli({"a.dfg", "--model-check=explicit", "--max-states", "123"},
               error);
  ASSERT_TRUE(o.has_value()) << error;
  EXPECT_EQ(o->modelCheck, ModelCheckMode::Explicit);
  EXPECT_EQ(o->maxStates, 123u);
  // Default: explicit engine, subcommand-default state bound.
  o = parseCli({"a.dfg"}, error);
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->modelCheck, ModelCheckMode::Explicit);
  EXPECT_EQ(o->maxStates, 0u);
  EXPECT_FALSE(parseCli({"a.dfg", "--model-check", "magic"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--model-check=bdd"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--model-check"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--max-states", "0"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--max-states", "many"}, error).has_value());
  EXPECT_NE(cliHelp().find("--model-check"), std::string::npos);
  EXPECT_NE(cliHelp().find("--max-states"), std::string::npos);
}

TEST_F(CliRun, LintSymbolicEndToEnd) {
  const std::string jsonPath = dir_ + "cli_lint_sym.json";
  CliOptions o;
  o.lint = true;
  o.inputPath = path_;
  o.allocation = parseAllocationSpec("mult=2,add=1");
  o.modelCheck = ModelCheckMode::Symbolic;
  o.lintJsonPath = jsonPath;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("symbolic model check over"), std::string::npos);
  EXPECT_NE(out.str().find("5/5 proved"), std::string::npos);
  EXPECT_NE(out.str().find("MDL008"), std::string::npos);
  std::ifstream j(jsonPath);
  std::ostringstream buffer;
  buffer << j.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"symbolic\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"PROVED\""), std::string::npos);
  EXPECT_NE(json.find("\"MDL008\":{"), std::string::npos);
}

TEST_F(CliRun, LintXpropEndToEnd) {
  const std::string jsonPath = dir_ + "cli_lint_xprop.json";
  CliOptions o;
  o.lint = true;
  o.lintXprop = true;
  o.inputPath = path_;
  o.allocation = parseAllocationSpec("mult=2,add=1");
  o.lintJsonPath = jsonPath;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("x-safety over"), std::string::npos);
  EXPECT_NE(out.str().find("XPR004"), std::string::npos);
  std::ifstream j(jsonPath);
  std::ostringstream buffer;
  buffer << j.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"xprop\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"XPR001\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"XPR002\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"DCS002\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"PROVED\""), std::string::npos);
  EXPECT_NE(json.find("\"skipped\":[]"), std::string::npos);
}

TEST_F(CliRun, LintOnlyFiltersAndReportsSkipped) {
  const std::string jsonPath = dir_ + "cli_lint_only.json";
  CliOptions o;
  o.lint = true;
  o.lintXprop = true;
  o.lintOnly = "XPR001";
  o.inputPath = path_;
  o.allocation = parseAllocationSpec("mult=2,add=1");
  o.lintJsonPath = jsonPath;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(runCli(o, out, err), 0) << err.str();
  std::ifstream j(jsonPath);
  std::ostringstream buffer;
  buffer << j.rdbuf();
  const std::string json = buffer.str();
  // The XPR004 summary (and everything else) was filtered, and the filter
  // says so instead of silently dropping the rows.
  EXPECT_EQ(json.find("\"code\":\"XPR004\""), std::string::npos);
  EXPECT_NE(json.find("\"XPR004\""), std::string::npos);  // in "skipped"
  EXPECT_NE(json.find("\"skipped\":["), std::string::npos);

  // Unknown codes are a hard CLI error, not an empty report.
  CliOptions bad = o;
  bad.lintOnly = "XPR999";
  std::ostringstream out2, err2;
  EXPECT_EQ(runCli(bad, out2, err2), 1);
  EXPECT_NE(err2.str().find("unknown rule code"), std::string::npos);
}

TEST(CliParse, XpropOnlyAndEncodingFlags) {
  std::string error;
  auto o = parseCli({"lint", "a.dfg", "--xprop", "--only", "XPR001,DCS001"},
                    error);
  ASSERT_TRUE(o.has_value()) << error;
  EXPECT_TRUE(o->lintXprop);
  EXPECT_EQ(o->lintOnly, "XPR001,DCS001");
  o = parseCli({"a.dfg", "--encoding", "onehot"}, error);
  ASSERT_TRUE(o.has_value()) << error;
  EXPECT_EQ(o->encoding, synth::EncodingStyle::OneHot);
  o = parseCli({"a.dfg"}, error);
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->encoding, synth::EncodingStyle::Binary);
  // --xprop and --only are lint-only; bad encodings are rejected.
  EXPECT_FALSE(parseCli({"a.dfg", "--xprop"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--only", "XPR001"}, error).has_value());
  EXPECT_FALSE(parseCli({"a.dfg", "--encoding", "gray"}, error).has_value());
  EXPECT_NE(cliHelp().find("--xprop"), std::string::npos);
  EXPECT_NE(cliHelp().find("--only"), std::string::npos);
  EXPECT_NE(cliHelp().find("--encoding"), std::string::npos);
}

}  // namespace
}  // namespace tauhls::core
