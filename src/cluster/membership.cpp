#include "cluster/membership.hpp"

#include <algorithm>

namespace rfd::cluster {
namespace {

/// Whether node `i` crashes inside the run.
bool crashes(const MembershipConfig& config, NodeId i) {
  const std::size_t at = static_cast<std::size_t>(i);
  return at < config.crash_at_ms.size() && config.crash_at_ms[at] > 0.0 &&
         config.crash_at_ms[at] < config.duration_ms;
}

}  // namespace

ClusterConfig cluster_config(const MembershipConfig& config) {
  ClusterConfig cluster;
  cluster.n = config.n;
  cluster.topology.kind = TopologyKind::kAllToAll;
  cluster.detector = config.detector;
  cluster.network = config.network;
  cluster.heartbeat_interval_ms = config.heartbeat_interval_ms;
  cluster.check_interval_ms = config.check_interval_ms;
  cluster.duration_ms = config.duration_ms;
  cluster.exclusion = true;
  for (NodeId i = 0; i < config.n; ++i) {
    if (crashes(config, i)) {
      cluster.scenario.crash(config.crash_at_ms[static_cast<std::size_t>(i)],
                             i);
    }
  }
  return cluster;
}

MembershipResult run_membership_experiment(const MembershipConfig& config,
                                           std::uint64_t seed) {
  const ClusterReport report = run_cluster(cluster_config(config), seed);
  MembershipResult result;
  result.exclusions = static_cast<std::int64_t>(report.excluded.size());
  result.false_exclusions = report.false_exclusions;
  result.exclusion_latency_ms = report.exclusion_latency_ms;

  // Converged: the group keeps a member, and none of its members crashed.
  result.converged =
      report.excluded.size() < static_cast<std::size_t>(config.n);
  result.final_view.push_back('{');
  for (NodeId i = 0; i < config.n; ++i) {
    if (std::binary_search(report.excluded.begin(), report.excluded.end(),
                           i)) {
      continue;
    }
    if (result.final_view.size() > 1) result.final_view.push_back(',');
    result.final_view += std::to_string(i);
    result.converged = result.converged && !crashes(config, i);
  }
  result.final_view.push_back('}');
  result.suspicions_accurate = report.excluded_down;
  return result;
}

}  // namespace rfd::cluster
