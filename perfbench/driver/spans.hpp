// Host-clock spans recorded by the benchmark around its calls into each
// layer (one span per pass, per harness run_* call, per unit probe). Spans
// are kept in memory and written once, at exit, as Chrome/Perfetto trace
// JSON ("X" complete events on one track, parent ids in args).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class HostSpans {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoParent = 0;

  HostSpans() : origin_(Clock::now()) {}

  /// Opens a span; returns its id (ids start at 1).
  Id begin(std::string name, const char* cat, Id parent = kNoParent) {
    spans_.push_back(Span{std::move(name), cat, ns_now(), 0, parent});
    return static_cast<Id>(spans_.size());
  }

  /// Closes span `id` and returns its duration in seconds.
  double end(Id id) {
    Span& s = spans_[id - 1];
    s.dur_ns = ns_now() - s.start_ns;
    return static_cast<double>(s.dur_ns) * 1e-9;
  }

  /// Writes the spans as a Chrome trace-event document. Returns false on
  /// I/O failure.
  bool write_chrome_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,",
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.dur_ns) * 1e-3);
      f << (i ? ",\n" : "\n") << "{\"name\":\""
        << hmps::obs::json_escape(s.name) << "\",\"cat\":\"" << s.cat
        << "\"," << buf << "\"args\":{\"id\":" << i + 1
        << ",\"parent\":" << s.parent << "}}";
    }
    f << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return f.good();
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    Id parent;
  };

  std::int64_t ns_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
