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
//
// Messages take one path: each shard sends through one
// transport::Transport and polls it at every check tick - its own
// endpoint of the engine's in-process network, or, on one shard, a
// caller's transport: the way to real sockets and checkpoints, and how
// the soak runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/metrics.hpp"
#include "cluster/scenario.hpp"
#include "cluster/topology.hpp"
#include "obs/config.hpp"
#include "runtime/detectors.hpp"
#include "runtime/network.hpp"

namespace rfd::transport {
class Transport;
}

namespace rfd::cluster {

/// The engine between two check windows of a run over a caller's
/// transport, as ClusterConfig::on_window sees it.
class WindowBoundary {
 public:
  /// Check ticks completed (the start tick before the first window),
  /// and that tick's simulated time in ms.
  virtual std::int64_t tick() const = 0;
  virtual double now_ms() const = 0;
  /// Appends the state any later protocol record or report field depends
  /// on. Saved: every node's state, the nodes' RNG streams, the pump
  /// times, the topology's role state (hierarchical acting leaders), the
  /// ground truth (with the nodes' up times), the QoS ledger (with the
  /// mistake count and sum), the raise latencies, and then the
  /// transport's own save_state. Rebuilt on restore: the suspicion wheel
  /// (from the nodes' eval ticks), the disagreement count, the clock
  /// (from the tick) and the fault network's state (by replaying the
  /// faults applied by then). The bytes lead with a format magic, so a
  /// state an older build wrote is refused, never misread.
  virtual void save_state(std::vector<std::uint8_t>& out) const = 0;
  /// Before the first window only: replaces the fresh state with one
  /// save_state wrote under the same configuration, validating every
  /// field. On a refusal, with `error` set, on_window must return false.
  virtual bool restore_state(const std::uint8_t* data, std::size_t size,
                             std::string& error) = 0;

 protected:
  ~WindowBoundary() = default;
};

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
  /// and the run finalizes normally: metrics aggregate, the trace is
  /// written out and the end-of-run footer is written, covering exactly
  /// the check windows that executed. nullptr = run to duration_ms.
  const std::atomic<bool>* stop = nullptr;
  /// Optional caller's transport, used instead of the engine's own
  /// endpoints (see the file header). The engine sends each digest at
  /// its pump time and, at check tick T_k, polls and applies what is due
  /// by T_k. The bytes are untrusted: a payload the digest reader
  /// rejects, or a delivery off the id space or outside (T_{k-1}, T_k],
  /// is dropped. Network faults go to the transport's fault_network(),
  /// if it has one, and its counters appear as transport.* gauges in
  /// snapshots. Requires shards == 1; no off-grid tail window runs after
  /// the last tick. Not owned.
  transport::Transport* transport = nullptr;
  /// Section 1.3's group membership (cluster/membership.hpp). Members
  /// are the ids ever active and not excluded. Whenever an observer
  /// raises a suspicion or the group loses a member, an observer that is
  /// then the acting coordinator (a member suspecting every lower-id
  /// member) proposes every member it suspects. The coordinator step
  /// takes the tick's proposals in proposer order, drops one whose
  /// proposer it has just excluded, and fences each victim with a
  /// kExclude fault: a crash at the start of the next window, at the
  /// proposal's tick. The last window's proposals are dropped, so every
  /// excluded node is down when the report is scored. Not with a
  /// caller's transport, nor with a scenario that recovers a node.
  bool exclusion = false;
  /// With a caller's transport only: called once before the first window
  /// (the place to restore a checkpoint) and after every window's
  /// coordinator step, where it may checkpoint or wait. Returning false
  /// after a window ends the run there, as the stop flag does; returning
  /// false before the first window runs none.
  std::function<bool(WindowBoundary&)> on_window;
};

/// Why run_cluster would refuse `config` (it aborts on one), or empty:
/// every value the engine or its parts (nodes, detectors, topology,
/// network) would abort on, NaN included.
std::string config_error(const ClusterConfig& config);

/// Why rt::Network would refuse `params`, or deliver at a time that is
/// not a finite one after the send; empty when none. config_error checks
/// the engine's network with it, and the soak its transports' networks.
std::string network_error(const rt::NetworkParams& params);

/// Runs one seeded cluster experiment and aggregates cluster QoS.
ClusterReport run_cluster(const ClusterConfig& config, std::uint64_t seed);

}  // namespace rfd::cluster
