#include "cluster/qos.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace rfd::cluster {
namespace {

bool crashes(const QosConfig& config) {
  return config.crash_at_ms > 0.0 && config.crash_at_ms < config.duration_ms;
}

}  // namespace

ClusterConfig cluster_config(const QosConfig& config) {
  ClusterConfig cluster;
  cluster.n = 2;
  cluster.topology.kind = TopologyKind::kAllToAll;
  cluster.detector = config.detector;
  cluster.network = config.network;
  cluster.heartbeat_interval_ms = config.heartbeat_interval_ms;
  cluster.check_interval_ms = config.poll_interval_ms;
  cluster.duration_ms = config.duration_ms;
  if (crashes(config)) cluster.scenario.crash(config.crash_at_ms, 1);
  cluster.obs.trace_path = config.trace_path;
  return cluster;
}

QosResult run_qos_experiment(const QosConfig& config, std::uint64_t seed) {
  const ClusterReport report = run_cluster(cluster_config(config), seed);
  QosResult result;
  result.crashed = crashes(config);
  // Node 0 is the one live observer of the crashed node 1.
  if (result.crashed && report.detection_latency_ms.count() > 0) {
    result.detection_time_ms = report.detection_latency_ms.mean();
  }
  // Both pairs are monitored until the crash.
  const double pair_ms =
      2.0 * (result.crashed ? config.crash_at_ms : config.duration_ms);
  result.false_transitions = report.false_suspicions;
  result.mistakes = report.mistakes;
  result.mistake_ms = report.mistake_ms;
  if (pair_ms > 0.0) {
    result.mistake_rate_per_s =
        static_cast<double>(report.false_suspicions) / (pair_ms / 1000.0);
    result.query_accuracy = 1.0 - report.mistake_ms / pair_ms;
  }
  result.heartbeats_sent = report.messages_sent;
  return result;
}

QosAggregate run_qos_sweep(const QosConfig& config, std::uint64_t seed,
                           int runs) {
  RFD_REQUIRE(runs > 0);
  QosAggregate agg;
  std::int64_t mistakes = 0;
  double mistake_ms = 0.0;
  for (int i = 0; i < runs; ++i) {
    const QosResult r = run_qos_experiment(
        config, mix_seed(seed, static_cast<std::uint64_t>(i)));
    if (r.crashed) {
      if (r.detection_time_ms >= 0.0) {
        agg.detection_time_ms.add(r.detection_time_ms);
      } else {
        ++agg.undetected_crashes;
      }
    }
    agg.mistake_rate_per_s.add(r.mistake_rate_per_s);
    mistakes += r.mistakes;
    mistake_ms += r.mistake_ms;
    agg.query_accuracy.add(r.query_accuracy);
  }
  if (mistakes > 0) {
    agg.avg_mistake_duration_ms = mistake_ms / static_cast<double>(mistakes);
  }
  return agg;
}

}  // namespace rfd::cluster
