// Minimal JSON value for the benchmark's result lines.
//
// Objects keep insertion order and reject a repeated key: json.load keeps
// only the last copy of a key, so a result with two rows under one name
// would silently drop the earlier rows from every comparison.  Rows that
// exist once per controller are therefore objects keyed by controller name,
// never repeated rule keys inside one object.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/json.hpp"

namespace perfbench {

class Json {
 public:
  Json(bool b) : kind_(Kind::Scalar), text_(b ? "true" : "false") {}
  Json(int v) : kind_(Kind::Scalar), text_(std::to_string(v)) {}
  Json(std::int64_t v) : kind_(Kind::Scalar), text_(std::to_string(v)) {}
  Json(std::uint64_t v) : kind_(Kind::Scalar), text_(std::to_string(v)) {}
  /// Doubles keep every significant digit; NaN and infinities are refused.
  Json(double v) : kind_(Kind::Scalar) {
    if (!std::isfinite(v)) throw std::logic_error("non-finite JSON number");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    text_ = buf;
  }
  Json(const std::string& s) : kind_(Kind::Scalar), text_(quote(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json object() { return Json(Kind::Object); }
  static Json array() { return Json(Kind::Array); }

  /// Add a member; throws when `key` is already present.
  Json& set(const std::string& key, Json value) {
    if (kind_ != Kind::Object) throw std::logic_error("set() on a non-object");
    if (!keys_.insert(key).second) {
      throw std::logic_error("duplicate JSON key: " + key);
    }
    members_.emplace_back(key, std::move(value));
    return *this;
  }

  Json& push(Json value) {
    if (kind_ != Kind::Array) throw std::logic_error("push() on a non-array");
    members_.emplace_back(std::string(), std::move(value));
    return *this;
  }

  std::string dump() const {
    std::string out;
    dumpTo(out);
    return out;
  }

 private:
  enum class Kind { Scalar, Object, Array };
  explicit Json(Kind k) : kind_(k) {}

  static std::string quote(const std::string& s) {
    return "\"" + tauhls::core::jsonEscape(s) + "\"";
  }

  void dumpTo(std::string& out) const {
    switch (kind_) {
      case Kind::Scalar: out += text_; return;
      case Kind::Object:
      case Kind::Array: {
        const bool object = kind_ == Kind::Object;
        out += object ? '{' : '[';
        bool first = true;
        for (const auto& [key, value] : members_) {
          if (!first) out += ',';
          first = false;
          if (object) out += quote(key) + ":";
          value.dumpTo(out);
        }
        out += object ? '}' : ']';
        return;
      }
    }
  }

  Kind kind_;
  std::string text_;
  std::vector<std::pair<std::string, Json>> members_;
  std::set<std::string> keys_;
};

}  // namespace perfbench
