// The one JSON writer: flow results, lint reports, store stats, pass traces
// and the BENCH_*.json trajectories are all built through JsonWriter.
//
// It appends to one std::string, escapes every key and string value with
// tauhls::jsonEscape, and throws tauhls::Error on malformed documents a
// reader would silently accept or reject: a key repeated inside one open
// object, a non-finite number, a value without a key inside an object, or
// unbalanced begin/end calls.
//
//   JsonWriter w;
//   w.beginObject();
//   w.key("design").value("diffeq");
//   w.key("ms").fixed(12.5);            // 12.500
//   w.key("ps").beginArray().value(0.9).value(0.5).endArray();
//   w.endObject();
//   std::string doc = w.str();          // {"design":"diffeq",...}
#pragma once

#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tauhls {

class JsonWriter {
 public:
  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// The next member's key; throws when the open object already has it.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  /// printf's %.6g form: the bytes of `std::ostream << v` at the default
  /// precision.
  JsonWriter& value(double v);
  template <std::integral Int>
    requires(!std::same_as<Int, bool>)
  JsonWriter& value(Int v) {
    if constexpr (std::signed_integral<Int>) {
      return integer(static_cast<long long>(v));
    } else {
      return integer(static_cast<unsigned long long>(v));
    }
  }
  /// Three fixed decimals, for timings and rounded cells: the bytes of
  /// `std::fixed << std::setprecision(3) << v`.
  JsonWriter& fixed(double v);

  /// The finished document; throws while a begin lacks its end.
  const std::string& str() const;

 private:
  struct Frame {
    bool object;
    bool hasItems = false;
    std::size_t firstKey;  ///< this object's first entry in keys_
  };
  void beforeValue();
  JsonWriter& integer(long long v);
  JsonWriter& integer(unsigned long long v);
  JsonWriter& number(double v, bool fixed3);
  JsonWriter& close(bool object);

  std::string out_;
  std::vector<Frame> stack_;
  /// (offset, length) of each escaped key of every open object, innermost
  /// object last; a linear scan finds repeats (objects hold a few dozen keys).
  std::vector<std::pair<std::size_t, std::size_t>> keys_;
  bool keyPending_ = false;
};

}  // namespace tauhls
