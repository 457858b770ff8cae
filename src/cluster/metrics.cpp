#include "cluster/metrics.hpp"

#include <cmath>
#include <cstdio>

namespace rfd::cluster {

void finalize_rates(ClusterReport& report) {
  const double node_seconds =
      static_cast<double>(report.n) * report.duration_ms / 1000.0;
  if (node_seconds <= 0.0) return;
  report.messages_per_node_per_s =
      static_cast<double>(report.messages_sent) / node_seconds;
  report.entries_per_node_per_s =
      static_cast<double>(report.digest_entries_sent) / node_seconds;
  report.payload_bytes_per_node_per_s =
      static_cast<double>(report.digest_payload_bytes) / node_seconds;
  report.false_suspicions_per_node_per_min =
      static_cast<double>(report.false_suspicions) / node_seconds * 60.0;
}

std::string ClusterReport::summary() const {
  char buf[512];
  const double p50 = detection_latency_ms.count() > 0
                         ? detection_latency_ms.percentile(0.5)
                         : std::nan("");
  const double p99 = detection_latency_ms.count() > 0
                         ? detection_latency_ms.percentile(0.99)
                         : std::nan("");
  std::snprintf(
      buf, sizeof(buf),
      "%s/%s n=%d: %.1f msgs/node/s, detect p50=%.0fms p99=%.0fms "
      "(missed %lld), false=%lld, converged %lld/%lld, agree=%s",
      topology.c_str(), detector.c_str(), n, messages_per_node_per_s,
      p50, p99, static_cast<long long>(missed_detections),
      static_cast<long long>(false_suspicions),
      static_cast<long long>(convergence_ms.count()),
      static_cast<long long>(disruptions), final_agreement ? "yes" : "no");
  return buf;
}

}  // namespace rfd::cluster
