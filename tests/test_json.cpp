#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/flow.hpp"
#include "core/json.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "core/store.hpp"
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

// --- the shared writer (common/json) --------------------------------------

/// Strict JSON syntax check (RFC 8259 grammar, no extensions): true when `s`
/// is exactly one value, optionally surrounded by whitespace.
class JsonSyntax {
 public:
  explicit JsonSyntax(const std::string& s) : s_(s) {}
  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == '-' || (c >= '0' && c <= '9')) return number();
    for (const char* lit : {"true", "false", "null"}) {
      if (s_.compare(i_, std::strlen(lit), lit) == 0) {
        i_ += std::strlen(lit);
        return true;
      }
    }
    return false;
  }
  bool object() {
    ++i_;
    ws();
    if (eat('}')) return true;
    do {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      ws();
      if (!value()) return false;
      ws();
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    ++i_;
    ws();
    if (eat(']')) return true;
    do {
      ws();
      if (!value()) return false;
      ws();
    } while (eat(','));
    return eat(']');
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (i_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[i_++]))) {
            return false;
          }
        }
      } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    eat('-');
    if (eat('0')) {
    } else if (!digits()) {
      return false;
    }
    if (eat('.') && !digits()) return false;
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return true;
  }
  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return i_ > start;
  }
  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  const std::string& s_;
  std::size_t i_ = 0;
};

bool parses(const std::string& s) { return JsonSyntax(s).valid(); }

TEST(JsonWriter, RepeatedKeyInOneObjectThrows) {
  JsonWriter w;
  w.beginObject();
  w.key("a").value(1);
  w.key("b").beginObject().key("a").value(2).endObject();
  EXPECT_THROW(w.key("a"), Error);

  // Keys compare after escaping, which is injective.
  JsonWriter e;
  e.beginObject().key("q\"").value(1);
  EXPECT_THROW(e.key("q\""), Error);
  EXPECT_NO_THROW(e.key("q\\").value(2));
}

TEST(JsonWriter, SiblingObjectsMayRepeatKeys) {
  JsonWriter w;
  w.beginObject();
  w.key("rows").beginArray();
  w.beginObject().key("name").value("x").endObject();
  w.beginObject().key("name").value("y").endObject();
  w.endArray();
  w.key("first").beginObject().key("ms").value(1).endObject();
  w.key("second").beginObject().key("ms").value(2).endObject();
  w.endObject();
  EXPECT_EQ(w.str(),
            R"({"rows":[{"name":"x"},{"name":"y"}],"first":{"ms":1},)"
            R"("second":{"ms":2}})");
  EXPECT_TRUE(parses(w.str()));
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  JsonWriter w;
  w.beginObject();
  w.key("a\"b\\c\n").value("d\"e\t\x01");
  w.endObject();
  EXPECT_EQ(w.str(), R"({"a\"b\\c\n":"d\"e\t\u0001"})");
  EXPECT_TRUE(parses(w.str()));
}

TEST(JsonWriter, NonFiniteNumbersThrow) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    JsonWriter w;
    w.beginArray();
    EXPECT_THROW(w.value(v), Error);
    EXPECT_THROW(w.fixed(v), Error);
  }
}

TEST(JsonWriter, MalformedDocumentsThrow) {
  JsonWriter valueWithoutKey;
  valueWithoutKey.beginObject();
  EXPECT_THROW(valueWithoutKey.value(1), Error);

  JsonWriter keyInArray;
  keyInArray.beginArray();
  EXPECT_THROW(keyInArray.key("k"), Error);

  JsonWriter mismatched;
  mismatched.beginObject();
  EXPECT_THROW(mismatched.endArray(), Error);

  JsonWriter incomplete;
  incomplete.beginObject().key("k");
  EXPECT_THROW(incomplete.str(), Error);
}

TEST(JsonWriter, DefaultNumberFormMatchesOstream) {
  for (const double v :
       {0.0, -0.0, 1e-7, 0.1 + 0.2, 79.215, 123456.5, 1e21,
        std::numeric_limits<double>::denorm_min(), 5e-310, -2.5, 15.0,
        68.0968346, 1234567.0, 1e-5, 0.0001,
        -std::numeric_limits<double>::max()}) {
    std::ostringstream os;
    os << v;
    JsonWriter w;
    w.beginArray().value(v).endArray();
    EXPECT_EQ(w.str(), "[" + os.str() + "]") << v;
  }
}

TEST(JsonWriter, FixedFormMatchesFixedSetprecision3) {
  for (const double v : {0.0, -0.0, 1e-7, 0.1 + 0.2, 79.215, 123456.5, 1e21,
                         0.0005, 0.0015, 2.0005, -1.2345, 99999.9999,
                         -std::numeric_limits<double>::max()}) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(3) << v;
    JsonWriter w;
    w.beginArray().fixed(v).endArray();
    EXPECT_EQ(w.str(), "[" + os.str() + "]") << v;
  }
}

TEST(JsonWriter, IntegersKeepTheirFullRange) {
  JsonWriter w;
  w.beginArray();
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(-1).value(std::size_t{0}).value(true).value(false);
  w.endArray();
  EXPECT_EQ(w.str(),
            "[18446744073709551615,-9223372036854775808,-1,0,true,false]");
}

TEST(Json, ChromeTraceEscapesPassNamesAndArgKeys) {
  PassTraceEvent ev;
  ev.pass = "pa\"ss";
  ev.startUs = 1.5;
  ev.durationUs = 2.25;
  ev.extraArgs = {{"EQV\"001.queries", 3}, {"k\\", 4}};
  const std::string json = traceToChromeJson({{"run", {ev}}});
  EXPECT_TRUE(balanced(json));
  EXPECT_TRUE(parses(json));
  EXPECT_NE(json.find(R"("name":"pa\"ss")"), std::string::npos);
  EXPECT_NE(json.find(R"("EQV\"001.queries":3)"), std::string::npos);
  EXPECT_NE(json.find(R"("ts":1.500,"dur":2.250)"), std::string::npos);
}

// The bytes below were produced by the hand-spliced writers this one
// replaced; flow JSON bytes feed perfbench's result digest, and lint/store
// JSON are CI artifacts diffed across commits.
TEST(Json, FlowBytesArePinned) {
  const std::string j = toJson(diffeqResult(true));
  EXPECT_TRUE(parses(j));
  EXPECT_EQ(j,
      R"json({"design":"diffeq","operations":11,"clock_ns":15,)json"
      R"json("allocation":"+:1, -:1, *:2",)json"
      R"json("controllers":[{"name":"D_FSM_adder1","telescopic":false,)json"
      R"json("states":3,"flip_flops":2,"operations":["x1","y1"]},)json"
      R"json({"name":"D_FSM_subtractor1","telescopic":false,"states":6,)json"
      R"json("flip_flops":3,"operations":["c","s1","u1"]},)json"
      R"json({"name":"D_FSM_mult1","telescopic":true,"states":7,)json"
      R"json("flip_flops":3,"operations":["m1","m3","m6"]},)json"
      R"json({"name":"D_FSM_mult2","telescopic":true,"states":6,)json"
      R"json("flip_flops":3,"operations":["m2","m4","m5"]}],)json"
      R"json("completion_latches":5,)json"
      R"json("signal_optimization":{"removed_outputs":6,)json"
      R"json("kept_outputs":5},"latency":{"tau":{"best_ns":60,)json"
      R"json("worst_ns":105,"average_ns":[{"p":0.9,"ns":68.55},)json"
      R"json({"p":0.7,"ns":82.95},{"p":0.5,"ns":93.75}]},)json"
      R"json("dist":{"best_ns":60,"worst_ns":105,)json"
      R"json("average_ns":[{"p":0.9,"ns":68.0968},{"p":0.7,)json"
      R"json("ns":80.7207},{"p":0.5,"ns":90.7031}]},)json"
      R"json("enhancement_percent":[0.661116,2.68747,3.25]},)json"
      R"json("area":{"cent_sync":{"name":"CENT-SYNC-FSM","inputs":2,)json"
      R"json("outputs":22,"states":7,"flip_flops":3,)json"
      R"json("combinational_area":218,"sequential_area":66},)json"
      R"json("dist_total":{"name":"DIST-FSM","inputs":7,"outputs":27,)json"
      R"json("states":22,"flip_flops":16,"combinational_area":354,)json"
      R"json("sequential_area":352},)json"
      R"json("dist_controllers":[{"name":"D-FSM-adder1","inputs":1,)json"
      R"json("outputs":5,"states":3,"flip_flops":2,)json"
      R"json("combinational_area":24,"sequential_area":44},)json"
      R"json({"name":"D-FSM-subtractor1","inputs":3,"outputs":6,)json"
      R"json("states":6,"flip_flops":3,"combinational_area":86,)json"
      R"json("sequential_area":66},{"name":"D-FSM-mult1","inputs":2,)json"
      R"json("outputs":8,"states":7,"flip_flops":3,)json"
      R"json("combinational_area":152,"sequential_area":66},)json"
      R"json({"name":"D-FSM-mult2","inputs":1,"outputs":8,"states":6,)json"
      R"json("flip_flops":3,"combinational_area":92,)json"
      R"json("sequential_area":66}]}})json");
}

TEST(Json, LintBytesArePinned) {
  verify::Report report;
  report.add("DFG004", "dfg diffeq", "m\"3", "dead op\tvalue");
  report.add("EQV006", "fsm D_FSM_mult1", "", "proved");
  report.add("DFG004", "dfg diffeq", "a\\b", "second");
  verify::JsonSections sections;
  const verify::RuleCost c1{1, 2, 3, 4, 5, 6, 7};
  const verify::RuleCost c2{10, 20, 30, 40, 50, 60, 70};
  sections.satCost["EQV002"] = c2;
  sections.satCost["EQV001"] = c1;
  sections.symbolic.push_back(
      {"network diffeq", "MDL001", "PROVED", 3, 2, c1});
  sections.symbolic.push_back(
      {"network diffeq", "MDL004", "UNKNOWN", -1, 0, c2});
  sections.xprop.push_back({"network diffeq", "XPR001", "PROVED", 2, -1, 4096,
                            123456789012ULL, c1});
  sections.xprop.push_back({"D_FSM_mult1", "DCS002", "CEX", -1, 5, 0, 0, c2});
  sections.skipped = {"TIM003", "DCS001"};
  const std::string j = verify::renderJson(report, sections);
  EXPECT_TRUE(parses(j));
  EXPECT_EQ(j,
      R"json({"schema":"tauhls-lint","version":5,)json"
      R"json("diagnostics":[{"code":"DFG004","severity":"warning",)json"
      R"json("artifact":"dfg diffeq","where":"m\"3",)json"
      R"json("message":"dead op\tvalue"},{"code":"EQV006",)json"
      R"json("severity":"info","artifact":"fsm D_FSM_mult1","where":"",)json"
      R"json("message":"proved"},{"code":"DFG004","severity":"warning",)json"
      R"json("artifact":"dfg diffeq","where":"a\\b",)json"
      R"json("message":"second"}],"byRule":{"DFG004":2,"EQV006":1},)json"
      R"json("satCost":{"EQV001":{"queries":6,"simDischarged":7,)json"
      R"json("decisions":1,"propagations":2,"conflicts":3,"learned":4,)json"
      R"json("restarts":5},"EQV002":{"queries":60,"simDischarged":70,)json"
      R"json("decisions":10,"propagations":20,"conflicts":30,)json"
      R"json("learned":40,"restarts":50}},)json"
      R"json("symbolic":[{"artifact":"network diffeq","rule":"MDL001",)json"
      R"json("verdict":"PROVED","depthReached":3,"inductionK":2,)json"
      R"json("conflicts":3,"propagations":2,"decisions":1,"queries":6},)json"
      R"json({"artifact":"network diffeq","rule":"MDL004",)json"
      R"json("verdict":"UNKNOWN","depthReached":-1,"inductionK":0,)json"
      R"json("conflicts":30,"propagations":20,"decisions":10,)json"
      R"json("queries":60}],"xprop":[{"artifact":"network diffeq",)json"
      R"json("rule":"XPR001","verdict":"PROVED","depth":2,)json"
      R"json("cexCycle":-1,"instances":4096,"gateEvals":123456789012,)json"
      R"json("conflicts":3,"queries":6},{"artifact":"D_FSM_mult1",)json"
      R"json("rule":"DCS002","verdict":"CEX","depth":-1,"cexCycle":5,)json"
      R"json("instances":0,"gateEvals":0,"conflicts":30,"queries":60}],)json"
      R"json("skipped":["DCS001","TIM003"],"errors":0,"warnings":2})json");
  EXPECT_EQ(verify::renderJson(verify::Report{}),
      R"json({"schema":"tauhls-lint","version":5,"diagnostics":[],)json"
      R"json("byRule":{},"satCost":{},"symbolic":[],"xprop":[],)json"
      R"json("skipped":[],"errors":0,"warnings":0})json");
}

TEST(Json, StoreBytesArePinned) {
  StoreStats st;
  st.blobs = 48;
  st.bytes = 94679;
  st.maxBytes = 1ULL << 40;
  st.hits = 7;
  st.misses = 3;
  st.corrupt = 1;
  st.puts = 12;
  st.evictedBlobs = 2;
  st.evictedBytes = 4096;
  EXPECT_EQ(renderStoreJson(st),
      R"json({"schema":"tauhls-store","version":1,"formatVersion":1,)json"
      R"json("codecVersion":)json" + std::to_string(kArtifactCodecVersion) +
      R"json(,"blobs":48,"bytes":94679,)json"
      R"json("maxBytes":1099511627776,"hits":7,"misses":3,"corrupt":1,)json"
      R"json("puts":12,"evictedBlobs":2,"evictedBytes":4096})json");
}

}  // namespace
}  // namespace tauhls::core
