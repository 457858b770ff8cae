// The cluster monitoring engine: N nodes over the rfd::rt network, each
// pumping heartbeats and composing per-peer timeout detectors under a
// pluggable dissemination topology, driven by a scripted fault scenario.
//
// This is the paper's thesis at production scale: every node runs
// <>P-grade detectors that are always allowed to be wrong, and the
// engine measures what the resulting *cluster* delivers - detection
// latency percentiles across all (observer, victim) pairs, false
// suspicions, per-node message load, and how long the live membership
// takes to converge on the true crashed set after each disruption.
// Runs are a pure function of (config, seed).
#pragma once

#include <atomic>
#include <cstdint>

#include "cluster/metrics.hpp"
#include "cluster/scenario.hpp"
#include "cluster/topology.hpp"
#include "obs/config.hpp"
#include "runtime/detectors.hpp"
#include "runtime/network.hpp"

namespace rfd::cluster {

struct ClusterConfig {
  /// Initially active nodes, ids 0..n-1.
  int n = 64;
  /// Id space; ids n..max_nodes-1 start inactive and may join via the
  /// scenario. 0 = n. At most 65536: the engine refuses more.
  int max_nodes = 0;
  TopologyParams topology;
  rt::DetectorParams detector;
  rt::NetworkParams network;
  double heartbeat_interval_ms = 100.0;
  /// Suspicion transitions and cluster agreement are sampled on this
  /// grid (bounds the latency resolution of the report).
  double check_interval_ms = 100.0;
  /// Silence tolerated for known-but-never-heard peers (see node.hpp).
  double bootstrap_grace_ms = 1500.0;
  /// Piggyback retransmissions per counter advance (see node.hpp).
  int hot_transmissions = 4;
  /// Simulated horizon; the engine refuses a run of 2^31 - 1 or more
  /// check intervals.
  double duration_ms = 30'000.0;
  Scenario scenario;
  /// Shards the node set is partitioned across, each on its own thread
  /// for the run (shard 0 on the calling thread, so 1 = run entirely on
  /// it). Runs are bit-for-bit identical - metrics and traces - for
  /// every shard count; shards only changes wall-clock. Values beyond
  /// the node count are clamped. See engine.cpp for the two barriers per
  /// check window, the failure protocol and the determinism argument.
  int shards = 1;
  /// Observability: trace sink, snapshot cadence, phase profiling. The
  /// defaults keep everything off; a disabled trace costs the hot path
  /// one predictable branch per instrumentation point.
  obs::Config obs;
  /// Optional graceful-stop flag (e.g. wired to a SIGINT handler). When
  /// it reads true after a check tick, every shard stops at that tick
  /// and the run finalizes normally: metrics aggregate, the trace ring
  /// drains and the end-of-run footer is written, covering exactly the
  /// check windows that executed. nullptr = run to duration_ms.
  const std::atomic<bool>* stop = nullptr;
};

/// Runs one seeded cluster experiment and aggregates cluster QoS.
ClusterReport run_cluster(const ClusterConfig& config, std::uint64_t seed);

}  // namespace rfd::cluster
