// Output side of the benchmark program: one JSON object per line on stdout
// (run.py parses them), in-memory spans written out at the end of a run,
// and the digest that fingerprints a simulated result.
#pragma once

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Builds one JSON object and prints it as a single line.
class JsonLine {
 public:
  explicit JsonLine(const std::string& kind) { add("kind", kind); }

  JsonLine& add(const std::string& key, const std::string& value) {
    key_(key);
    out_ += '"' + escape(value) + '"';
    return *this;
  }
  JsonLine& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonLine& add(const std::string& key, double value) {
    key_(key);
    number(value);
    return *this;
  }
  JsonLine& add(const std::string& key, std::uint64_t value) {
    key_(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonLine& add(const std::string& key, bool value) {
    key_(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonLine& add(const std::string& key, const std::vector<double>& values) {
    key_(key);
    out_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out_ += ',';
      number(values[i]);
    }
    out_ += ']';
    return *this;
  }
  /// `json` must already be a serialised JSON value.
  JsonLine& add_raw(const std::string& key, const std::string& json) {
    key_(key);
    out_ += json;
    return *this;
  }

  void print() const { std::cout << out_ << "}\n" << std::flush; }

 private:
  void key_(const std::string& key) {
    out_ += out_.size() > 1 ? ",\"" : "\"";
    out_ += escape(key) + "\":";
  }
  void number(double value) {
    if (!std::isfinite(value)) {
      out_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
  }
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out += c;
    }
    return out;
  }

  std::string out_ = "{";
};

/// Spans recorded around the calls into each layer, kept in memory and
/// written out by flush() when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string job;
    int id = 0;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  /// Opens a span; close it with end(id).
  int begin(const std::string& name, const std::string& job, int parent) {
    spans_.push_back({name, job, static_cast<int>(spans_.size()), parent,
                      seconds_since(origin_), 0.0});
    return spans_.back().id;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_); }

  double duration_s(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }

  void flush() const {
    for (const Span& s : spans_) {
      JsonLine("span")
          .add("name", s.name)
          .add("job", s.job)
          .add("id", static_cast<std::uint64_t>(s.id))
          .add("parent", static_cast<double>(s.parent))
          .add("start_s", s.start_s)
          .add("end_s", s.end_s)
          .print();
    }
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// FNV-1a over the bytes of everything a simulated result reports.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void number(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void numbers(const std::vector<double>& vs) {
    u64(vs.size());
    for (double v : vs) number(v);
  }
  void text(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline void add_traffic(Digest& d, const cdnsim::net::TrafficTotals& t) {
  d.number(t.cost_km_kb);
  d.number(t.load_km_update);
  d.number(t.load_km_light);
  d.u64(t.update_messages);
  d.u64(t.light_messages);
}

inline std::string digest_of(const cdnsim::core::SimulationResult& r) {
  Digest d;
  d.numbers(r.server_inconsistency_s);
  d.numbers(r.user_inconsistency_s);
  d.numbers(r.per_server_max_user_inconsistency_s);
  d.number(r.avg_server_inconsistency_s);
  d.number(r.avg_user_inconsistency_s);
  add_traffic(d, r.traffic);
  add_traffic(d, r.provider_traffic);
  d.number(r.user_observed_inconsistency_fraction);
  d.u64(r.events_processed);
  d.number(r.simulated_time_s);
  d.u64(r.failures_injected);
  d.number(r.converged_server_fraction);
  d.text(r.metrics.to_json());
  return d.hex();
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
