// In-memory span recorder for the traced replay.
//
// Spans are recorded by the benchmark around calls into the library's public
// functions (the library itself is not instrumented).  Each span has a name,
// start, end, parent and design id, plus optional work counters.  They stay
// in memory and are written out once, as chrome://tracing JSON in the same
// shape `tauhlsc flow --trace-json` writes ({"traceEvents": [...]}, complete
// "X" events in microseconds).
//
// The replay is serial, so the recorder is single-threaded: a span's
// children are the spans opened while it was the innermost open span.
//
// The recorder also times itself: overheadUs() is the wall time spent inside
// its open, close and count calls, from entry to return.  That is the cost
// tracing adds to the replay (less one clock read per span end).
#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "json.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::string design;
  int parent = -1;
  double startUs = 0.0;
  double endUs = 0.0;
  std::map<std::string, double> counters;

  double durationUs() const { return endUs - startUs; }
};

class Tracer {
 public:
  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string design)
        : tracer_(tracer), id_(tracer.open(std::move(name), std::move(design))) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void count(const std::string& counter, double value) {
      tracer_.count(id_, counter, value);
    }

   private:
    Tracer& tracer_;
    int id_;
  };

  Tracer() : t0_(std::chrono::steady_clock::now()) {}

  const std::vector<Span>& spans() const { return spans_; }

  double overheadUs() const { return overheadUs_; }

  /// Each span's duration minus the part of its interval its children cover.
  std::vector<double> selfTimesUs() const {
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].push_back(
            {s.startUs, s.endUs});
      }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = children[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double reach = spans_[i].startUs;
      for (const auto& [start, end] : iv) {
        const double from = std::max(start, reach);
        if (end > from) covered += end - from;
        reach = std::max(reach, end);
      }
      self[i] = spans_[i].durationUs() - covered;
    }
    return self;
  }

  /// The chrome://tracing document; `otherData` lands in its metadata slot.
  Json chromeTrace(Json otherData) const {
    const std::vector<double> self = selfTimesUs();
    std::map<std::string, int> pidOf;
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int pid =
          pidOf.emplace(s.design, static_cast<int>(pidOf.size())).first->second;
      Json args = Json::object();
      args.set("design", s.design);
      args.set("parent", s.parent >= 0
                             ? spans_[static_cast<std::size_t>(s.parent)].name
                             : std::string());
      args.set("self_us", self[i]);
      for (const auto& [k, v] : s.counters) args.set(k, v);
      Json ev = Json::object();
      ev.set("name", s.name);
      ev.set("ph", "X");
      ev.set("ts", s.startUs);
      ev.set("dur", s.durationUs());
      ev.set("pid", pid);
      ev.set("tid", 0);
      ev.set("args", std::move(args));
      events.push(std::move(ev));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("otherData", std::move(otherData));
    return doc;
  }

 private:
  int open(std::string name, std::string design) {
    const double enterUs = nowUs();
    Span s;
    s.name = std::move(name);
    s.design = std::move(design);
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    const double startUs = nowUs();
    spans_.back().startUs = startUs;
    overheadUs_ += startUs - enterUs;
    return open_.back();
  }

  void close(int id) {
    const double endUs = nowUs();
    spans_[static_cast<std::size_t>(id)].endUs = endUs;
    open_.pop_back();
    overheadUs_ += nowUs() - endUs;
  }

  void count(int id, const std::string& counter, double value) {
    const double enterUs = nowUs();
    spans_[static_cast<std::size_t>(id)].counters[counter] += value;
    overheadUs_ += nowUs() - enterUs;
  }

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  double overheadUs_ = 0.0;
};

}  // namespace perfbench
