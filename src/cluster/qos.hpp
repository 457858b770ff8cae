// Chen-Toueg QoS of one timeout-based detector (experiment E9), scored on
// the cluster engine.
//
// Two nodes heartbeat each other (all-to-all) and sample their verdicts
// on a check grid as fine as poll_interval_ms; node 1 crashes at
// crash_at_ms. The engine's QoS ledger scores each monitored pair:
//   detection_time_ms       - crash -> the monitor's standing suspicion
//                             (T_D), on the check grid;
//   mistake_rate_per_s      - false suspicions per second of the two
//                             pairs' pre-crash time (lambda_M);
//   mistakes, mistake_ms    - the booked mistakes and their summed
//                             length (T_M is their ratio);
//   query_accuracy          - 1 - total mistake time / the two pairs'
//                             pre-crash time (P_A).
// A mistake still open at the end of the run is not booked (see
// cluster/fault_state.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "cluster/engine.hpp"
#include "common/stats.hpp"

namespace rfd::cluster {

struct QosConfig {
  rt::DetectorParams detector;
  rt::NetworkParams network;
  double heartbeat_interval_ms = 100.0;
  double duration_ms = 60'000.0;
  /// Node 1's crash time; <= 0 or >= duration means it never crashes.
  double crash_at_ms = 40'000.0;
  /// The engine's check interval.
  double poll_interval_ms = 5.0;
  /// Optional JSONL trace of the run (the engine's records). Each run
  /// writes it afresh, so after a sweep it holds the last run's.
  std::string trace_path;
};

struct QosResult {
  bool crashed = false;
  double detection_time_ms = -1.0;  // -1: crash never detected in window
  std::int64_t false_transitions = 0;
  double mistake_rate_per_s = 0.0;
  std::int64_t mistakes = 0;
  double mistake_ms = 0.0;
  double query_accuracy = 1.0;
  std::int64_t heartbeats_sent = 0;
};

/// The engine run of run_qos_experiment (check it with config_error).
ClusterConfig cluster_config(const QosConfig& config);

QosResult run_qos_experiment(const QosConfig& config, std::uint64_t seed);

/// Averages `runs` seeded experiments.
struct QosAggregate {
  Summary detection_time_ms;
  Summary mistake_rate_per_s;
  /// T_M over every run's mistakes together; 0 without any.
  double avg_mistake_duration_ms = 0.0;
  Summary query_accuracy;
  std::int64_t undetected_crashes = 0;
};

QosAggregate run_qos_sweep(const QosConfig& config, std::uint64_t seed,
                           int runs);

}  // namespace rfd::cluster
