#include "common/json.hpp"

#include <charconv>
#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace tauhls {

namespace {

/// Append std::to_chars(args...) to `out`.
template <class... Args>
void appendChars(std::string& out, Args... args) {
  char buf[320];  // DBL_MAX in %.3f: 309 digits, sign, point, 3 decimals
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, args...);
  TAUHLS_ASSERT(ec == std::errc(), "JSON writer: number does not fit");
  out.append(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace

void JsonWriter::beforeValue() {
  if (keyPending_) {
    keyPending_ = false;  // the value follows its key without a comma
    return;
  }
  if (stack_.empty()) {
    TAUHLS_CHECK(out_.empty(), "JSON writer: second top-level value");
    return;
  }
  Frame& top = stack_.back();
  TAUHLS_CHECK(!top.object, "JSON writer: object member without a key");
  if (top.hasItems) out_ += ',';
  top.hasItems = true;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  TAUHLS_CHECK(!stack_.empty() && stack_.back().object && !keyPending_,
               "JSON writer: key \"" + std::string(k) +
                   "\" outside an object or after another key");
  Frame& top = stack_.back();
  if (top.hasItems) out_ += ',';
  top.hasItems = true;
  out_ += '"';
  const std::size_t offset = out_.size();
  out_ += jsonEscape(k);
  const std::size_t length = out_.size() - offset;
  const std::string_view escaped(out_.data() + offset, length);
  for (std::size_t i = top.firstKey; i < keys_.size(); ++i) {
    const auto [keyOffset, keyLength] = keys_[i];
    const std::string_view earlier(out_.data() + keyOffset, keyLength);
    TAUHLS_CHECK(earlier != escaped,
                 "JSON writer: duplicate key \"" + std::string(k) + "\"");
  }
  keys_.emplace_back(offset, length);
  out_ += "\":";
  keyPending_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  out_ += '{';
  stack_.push_back(Frame{true, false, keys_.size()});
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  out_ += '[';
  stack_.push_back(Frame{false, false, keys_.size()});
  return *this;
}

JsonWriter& JsonWriter::close(bool object) {
  TAUHLS_CHECK(!stack_.empty() && stack_.back().object == object &&
                   !keyPending_,
               object ? "JSON writer: unbalanced endObject"
                      : "JSON writer: unbalanced endArray");
  keys_.resize(stack_.back().firstKey);
  stack_.pop_back();
  out_ += object ? '}' : ']';
  return *this;
}

JsonWriter& JsonWriter::endObject() { return close(true); }

JsonWriter& JsonWriter::endArray() { return close(false); }

JsonWriter& JsonWriter::value(std::string_view v) {
  beforeValue();
  out_ += '"';
  out_ += jsonEscape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) { return number(v, false); }

JsonWriter& JsonWriter::fixed(double v) { return number(v, true); }

JsonWriter& JsonWriter::number(double v, bool fixed3) {
  TAUHLS_CHECK(std::isfinite(v), "JSON writer: non-finite number");
  beforeValue();
  // to_chars with a precision is specified as printf's %.*g / %.*f, which
  // is what std::ostream prints in its default / std::fixed float field.
  if (fixed3) {
    appendChars(out_, v, std::chars_format::fixed, 3);
  } else {
    appendChars(out_, v, std::chars_format::general, 6);
  }
  return *this;
}

JsonWriter& JsonWriter::integer(long long v) {
  beforeValue();
  appendChars(out_, v);
  return *this;
}

JsonWriter& JsonWriter::integer(unsigned long long v) {
  beforeValue();
  appendChars(out_, v);
  return *this;
}

const std::string& JsonWriter::str() const {
  TAUHLS_CHECK(stack_.empty() && !out_.empty(),
               "JSON writer: document is incomplete");
  return out_;
}

}  // namespace tauhls
