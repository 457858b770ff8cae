// Shared helpers for the experiment benches: run an algorithm fleet over a
// pattern and hand back the trace, common measurement utilities, and a
// machine-readable JSON emitter so the perf trajectory of every bench can
// be tracked across PRs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "cluster/engine.hpp"
#include "core/api.hpp"

namespace rfd::bench {

/// The E11 gossip scaling cell shortened to a throughput workload, shared
/// by E12a and E13 so their numbers stay directly comparable: the
/// detector timeout tracks the dissemination cadence exactly as in E11,
/// so the event mix (pumps, deliveries, checks) is representative, and a
/// crash wave lands at 40% of the horizon.
inline cluster::ClusterConfig gossip_config(int n) {
  constexpr double kIntervalMs = 250.0;
  cluster::ClusterConfig config;
  config.n = n;
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.digest_size = std::max(32, n / 8);
  config.heartbeat_interval_ms = kIntervalMs;
  // The check grid runs finer than the heartbeat period: detection
  // latencies and convergence times are quantized to it, and a 250ms
  // quantum is coarse against the latencies under measurement.
  config.check_interval_ms = 50.0;
  config.detector.kind = rt::DetectorKind::kFixed;
  const double per_round =
      static_cast<double>(config.topology.gossip_fanout) *
      config.topology.digest_size;
  const double gap_ms = kIntervalMs * std::max(1.0, n / per_round);
  config.detector.fixed.timeout_ms = std::max(1'000.0, 12.0 * gap_ms);
  config.bootstrap_grace_ms =
      std::max(1500.0, config.detector.fixed.timeout_ms);
  config.duration_ms = 12'000.0;
  const int crashes = std::max(1, n / 64);
  config.scenario =
      cluster::multi_crash_scenario(n, crashes, config.duration_ms * 0.4);
  return config;
}

/// CPUs this process may actually run on (the speedup ceiling); falls
/// back to hardware_concurrency where there is no affinity API.
inline int usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// This process's peak resident set so far in MB (VmHWM from
/// /proc/self/status); NaN where that file does not exist.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  double kb = std::nan("");
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Accumulates flat records and writes them as `BENCH_<name>.json` in the
/// working directory, next to the human-readable tables. Usage:
///
///   JsonReport json("e11_cluster");
///   json.row("scaling")
///       .str("topology", "gossip").num("n", 256)
///       .num("msgs_per_node_per_s", 31.2);
///   ...
///   json.write();
///
/// Values are doubles or strings; NaN/inf become null so downstream
/// tooling never sees bare `nan` tokens.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  JsonReport& row(const std::string& section) {
    rows_.emplace_back();
    return str("section", section);
  }

  JsonReport& str(const std::string& key, const std::string& value) {
    current().push_back("\"" + escape(key) + "\": \"" + escape(value) +
                        "\"");
    return *this;
  }

  JsonReport& num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.10g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    current().push_back("\"" + escape(key) + "\": " + buf);
    return *this;
  }

  JsonReport& boolean(const std::string& key, bool value) {
    current().push_back("\"" + escape(key) +
                        (value ? "\": true" : "\": false"));
    return *this;
  }

  /// Environment facts (host CPU count, pinning, toolchain) recorded once
  /// per report in a top-level `"env"` object, so downstream tooling can
  /// tell a slow run from a small machine.
  JsonReport& env_str(const std::string& key, const std::string& value) {
    env_.push_back("\"" + escape(key) + "\": \"" + escape(value) + "\"");
    return *this;
  }

  JsonReport& env_num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.10g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    env_.push_back("\"" + escape(key) + "\": " + buf);
    return *this;
  }

  std::string path() const { return "BENCH_" + name_ + ".json"; }

  /// Writes the accumulated records; returns false (and prints a warning)
  /// if the file cannot be opened.
  bool write() const {
    std::FILE* f = std::fopen(path().c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path().c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", escape(name_).c_str());
    if (!env_.empty()) {
      std::fprintf(f, "  \"env\": {");
      for (std::size_t i = 0; i < env_.size(); ++i) {
        std::fprintf(f, "%s%s", i == 0 ? "" : ", ", env_[i].c_str());
      }
      std::fprintf(f, "},\n");
    }
    std::fprintf(f, "  \"records\": [");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n    {", i == 0 ? "" : ",");
      for (std::size_t j = 0; j < rows_[i].size(); ++j) {
        std::fprintf(f, "%s%s", j == 0 ? "" : ", ", rows_[i][j].c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path().c_str(), rows_.size());
    return true;
  }

 private:
  /// Fields added before the first row() open one implicitly.
  std::vector<std::string>& current() {
    if (rows_.empty()) rows_.emplace_back();
    return rows_.back();
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string name_;
  std::vector<std::string> env_;
  std::vector<std::vector<std::string>> rows_;
};

template <typename Algo>
sim::Trace run_fleet(const std::string& detector,
                     const model::FailurePattern& pattern, std::uint64_t seed,
                     Tick horizon, sim::SimConfig config = {}) {
  const ProcessId n = pattern.n();
  const auto oracle = fd::find_detector(detector).factory(pattern, seed);
  std::vector<std::unique_ptr<sim::Automaton>> automata;
  for (ProcessId p = 0; p < n; ++p) {
    automata.push_back(std::make_unique<Algo>(n, 100 + p));
  }
  sim::Simulator sim(pattern, *oracle, std::move(automata),
                     std::make_unique<sim::RandomAdversary>(mix_seed(seed, 2)),
                     config);
  sim.run_for(horizon);
  return sim.trace();
}

/// Tick of the last decision of `instance` (or -1).
inline Tick last_decision_tick(const sim::Trace& trace, InstanceId instance) {
  Tick last = -1;
  for (const auto& d : trace.decisions_of_instance(instance)) {
    last = std::max(last, d.time);
  }
  return last;
}

/// Tick of the first decision of `instance` (or -1).
inline Tick first_decision_tick(const sim::Trace& trace, InstanceId instance) {
  Tick first = -1;
  for (const auto& d : trace.decisions_of_instance(instance)) {
    if (first < 0 || d.time < first) first = d.time;
  }
  return first;
}

}  // namespace rfd::bench
