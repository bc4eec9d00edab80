#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/json.hpp"
#include "dfg/benchmarks.hpp"
#include "verify/diagnostic.hpp"

namespace tauhls::core {
namespace {

using dfg::ResourceClass;

FlowResult diffeqResult(bool area) {
  FlowConfig cfg;
  cfg.allocation = {{ResourceClass::Multiplier, 2},
                    {ResourceClass::Adder, 1},
                    {ResourceClass::Subtractor, 1}};
  cfg.synthesizeArea = area;
  return runFlow(dfg::diffeq(), cfg);
}

TEST(JsonEscape, Basics) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
  // One escaper for every JSON writer: the lint renderer agrees on \r.
  EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
  verify::Report report;
  report.add("DFG004", "dfg x", "a\rb", "m");
  EXPECT_NE(verify::renderJson(report).find("\"where\":\"a\\rb\""),
            std::string::npos);
}

bool balanced(const std::string& s) {
  int braces = 0;
  int brackets = 0;
  bool inString = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (inString) {
      if (c == '\\') ++i;
      else if (c == '"') inString = false;
      continue;
    }
    if (c == '"') inString = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !inString;
}

TEST(Json, WellFormedAndComplete) {
  std::string j = toJson(diffeqResult(true));
  EXPECT_TRUE(balanced(j));
  for (const char* key :
       {"\"design\":", "\"operations\":", "\"clock_ns\":", "\"controllers\":",
        "\"completion_latches\":", "\"signal_optimization\":", "\"latency\":",
        "\"tau\":", "\"dist\":", "\"enhancement_percent\":", "\"area\":",
        "\"cent_sync\":", "\"dist_total\":"}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
  EXPECT_NE(j.find("\"design\":\"diffeq\""), std::string::npos);
  EXPECT_NE(j.find("\"operations\":11"), std::string::npos);
  // Adjacent values are comma-separated (no "}{" or "][" artifacts).
  EXPECT_EQ(j.find("}{"), std::string::npos);
  EXPECT_EQ(j.find("]["), std::string::npos);
  EXPECT_EQ(j.find(",,"), std::string::npos);
}

TEST(Json, AreaOmittedWhenNotSynthesized) {
  std::string j = toJson(diffeqResult(false));
  EXPECT_TRUE(balanced(j));
  EXPECT_EQ(j.find("\"area\":"), std::string::npos);
  EXPECT_NE(j.find("\"latency\":"), std::string::npos);
}

TEST(Json, ControllerInventory) {
  std::string j = toJson(diffeqResult(false));
  EXPECT_NE(j.find("\"name\":\"D_FSM_mult1\""), std::string::npos);
  EXPECT_NE(j.find("\"telescopic\":true"), std::string::npos);
  EXPECT_NE(j.find("\"telescopic\":false"), std::string::npos);
  // Op names show up in some controller's operation list.
  EXPECT_NE(j.find("\"m1\""), std::string::npos);
}

}  // namespace
}  // namespace tauhls::core
