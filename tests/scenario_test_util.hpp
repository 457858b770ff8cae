// Shared helpers for the scenario-file-driven tests: locating the
// checked-in scenarios/ library (via the RFD_SCENARIO_DIR compile
// definition), loading a file into the fixed reference cluster
// configuration the golden digests are pinned against, and the FNV-1a
// digest used to fingerprint trace bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"
#include "cluster/scenario_dsl.hpp"

namespace rfd::cluster::testutil {

inline std::string scenario_dir() {
#ifdef RFD_SCENARIO_DIR
  return RFD_SCENARIO_DIR;
#else
  return "scenarios";
#endif
}

inline ScenarioDoc load_doc(const std::string& file) {
  ScenarioDoc doc;
  DslError err;
  const std::string path = scenario_dir() + "/" + file;
  if (!load_scenario_file(path, DslContext{}, doc, err)) {
    ADD_FAILURE() << path << ": " << err.to_string();
  }
  return doc;
}

/// The reference configuration golden digests are pinned against: the
/// scenario file supplies n/max_nodes/duration, everything else is
/// fixed. Changing any of these invalidates scenarios/GOLDEN.txt.
inline ClusterConfig scenario_cluster_config(const ScenarioDoc& doc) {
  ClusterConfig config;
  config.n = doc.n > 0 ? doc.n : 32;
  config.max_nodes = std::max({doc.max_nodes, config.n,
                               static_cast<int>(doc.max_node_ref) + 1});
  config.topology.kind = TopologyKind::kGossip;
  config.topology.digest_size = 16;
  config.detector.kind = rt::DetectorKind::kChen;
  config.detector.chen.alpha_ms = 400.0;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.duration_ms = doc.duration_ms > 0.0 ? doc.duration_ms : 12'000.0;
  config.scenario = doc.scenario;
  return config;
}

/// Every report field a run produces, serialized for one-shot equality:
/// the shard-count invariance suite asserts field-identical reports
/// against a baseline run.
inline std::string report_fingerprint(const ClusterReport& r) {
  std::ostringstream ss;
  ss.precision(17);
  ss << r.n << '|' << r.max_nodes << '|' << r.topology << '|' << r.detector
     << '|' << r.duration_ms << '|' << r.messages_sent << '|'
     << r.messages_dropped << '|' << r.partition_dropped << '|'
     << r.digest_entries_sent << '|' << r.digest_payload_bytes << '|'
     << r.messages_per_node_per_s << '|' << r.entries_per_node_per_s << '|'
     << r.payload_bytes_per_node_per_s << '|' << r.events_executed << '|'
     << r.peak_event_queue << '|' << r.detection_latency_ms.count() << '|'
     << r.detection_latency_ms.mean() << '|' << r.detection_latency_ms.max()
     << '|' << r.missed_detections << '|' << r.false_suspicions << '|'
     << r.false_suspicions_per_node_per_min << '|'
     << r.convergence_ms.count() << '|' << r.convergence_ms.mean() << '|'
     << r.disruptions << '|' << r.unconverged_disruptions << '|'
     << r.final_agreement << '|' << r.suspicion_raises << '|'
     << r.suspicion_clears << '|' << r.trace_records << '|'
     << r.trace_dropped;
  return ss.str();
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The protocol records of a JSONL trace - every line but the run
/// header, snapshots, profile rollups and the footer - with t after
/// `after_ms`, in trace order.
inline std::vector<std::string> protocol_records(
    const std::string& trace,
    double after_ms = -std::numeric_limits<double>::infinity()) {
  std::vector<std::string> lines;
  std::istringstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    bool skip = false;
    for (const char* type : {"run", "snap", "profile", "end"}) {
      skip = skip || line.rfind(std::string("{\"type\":\"") + type + "\"",
                                0) == 0;
    }
    const std::size_t t = line.find("\"t\":");
    if (!skip && t != std::string::npos &&
        std::stod(line.substr(t + 4)) > after_ms) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// FNV-1a 64-bit, printed as fixed-width hex.
inline std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace rfd::cluster::testutil
