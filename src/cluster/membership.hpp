// A group membership service that emulates a Perfect failure detector by
// exclusion - the paper's explanation (Section 1.3) for why reliable
// systems get away with unreliable timeouts:
//
//   "when a process is suspected, i.e., timed-out, it is excluded from the
//    group: every suspicion hence turns out to be accurate."
//
// An n-node all-to-all engine run with ClusterConfig::exclusion on (see
// there). The suspect list the group delivers - the excluded set - is
// Perfect: complete (crashed members stop heartbeating and get excluded)
// and accurate *by construction* (the group fences whom it excludes; the
// engine checks the fences held at the end of the run).
// The honest cost is false exclusions: live nodes sacrificed to keep it
// accurate, measured here against the detector tuning (experiment E8).
// One coordinator step decides each view change, the primary-partition
// simplification of consensus-based view agreement; the abstract layer
// (src/algo) carries the full consensus-based construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/engine.hpp"
#include "common/stats.hpp"

namespace rfd::cluster {

struct MembershipConfig {
  NodeId n = 6;
  rt::DetectorParams detector;
  rt::NetworkParams network;
  double heartbeat_interval_ms = 100.0;
  double check_interval_ms = 50.0;
  double duration_ms = 60'000.0;
  /// Per-node crash time; <= 0 or >= duration means the node never
  /// crashes. Empty means nobody crashes.
  std::vector<double> crash_at_ms;
};

struct MembershipResult {
  std::int64_t exclusions = 0;
  /// Exclusions whose victim was up when excluded (detector mistakes
  /// turned into sacrifices).
  std::int64_t false_exclusions = 0;
  /// Crash -> exclusion, one per victim that had crashed.
  Summary exclusion_latency_ms;
  /// Some member is up at the end, and the final group is exactly the
  /// nodes up then: every crashed node was excluded.
  bool converged = false;
  /// Every excluded node is down at the end of the run (the paper's
  /// emulation claim; ClusterReport::excluded_down).
  bool suspicions_accurate = false;
  /// The final group, e.g. "{1,2,3}".
  std::string final_view;
};

/// The engine run of run_membership_experiment (check it with
/// config_error).
ClusterConfig cluster_config(const MembershipConfig& config);

MembershipResult run_membership_experiment(const MembershipConfig& config,
                                           std::uint64_t seed);

}  // namespace rfd::cluster
