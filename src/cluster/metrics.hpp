// Cluster-level QoS aggregation: what the whole monitoring fabric
// delivers. The report makes dissemination topologies directly
// comparable: detection latency percentiles across every (observer,
// victim) pair, false-suspicion counts, mistake count and time (T_M),
// per-node message load, and convergence time - how long after a
// disruption until every live node agrees on the true crashed set.
//
// ClusterReport is the engine's only metric store: its coordinator adds
// to the report as the run goes, and each `snap` trace record is the
// report so far (see ClusterEngine::snapshot for the names and order).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/profile.hpp"

namespace rfd::cluster {

struct ClusterReport {
  int n = 0;          // initial active nodes (rates are normalized by this)
  int max_nodes = 0;  // id space (>= n when the scenario includes joins)
  std::string topology;
  std::string detector;
  double duration_ms = 0.0;

  // Message complexity.
  std::int64_t messages_sent = 0;
  std::int64_t messages_dropped = 0;
  std::int64_t partition_dropped = 0;
  /// Piggybacked (id, counter) entries beyond the senders' own - the
  /// bandwidth the topology spends on transitive dissemination.
  std::int64_t digest_entries_sent = 0;
  /// Encoded payload bytes of every surviving message (the delta-
  /// compressed wire size; see cluster/digest_codec.hpp).
  std::int64_t digest_payload_bytes = 0;
  double messages_per_node_per_s = 0.0;
  double entries_per_node_per_s = 0.0;
  double payload_bytes_per_node_per_s = 0.0;

  // Simulation-core throughput inputs (filled by the engine; the E12
  // bench divides events by wall-clock to get events/sec).
  std::int64_t events_executed = 0;
  std::int64_t peak_event_queue = 0;

  // Detection quality. One latency sample per (live observer, crashed
  // victim) pair, measured crash -> start of the suspicion that still
  // stands at the end of the run; quantized to the check interval.
  Summary detection_latency_ms;
  std::int64_t missed_detections = 0;
  /// Down victims a live observer never learned of (not missed above).
  std::int64_t unmet_victims = 0;
  /// Crash -> raise, one per raise against a down victim, ascending: the
  /// soak's sample definition (see cluster/fault_state.hpp).
  std::vector<double> raise_latency_ms;
  /// Suspicion transitions against peers that were alive at that moment.
  std::int64_t false_suspicions = 0;
  double false_suspicions_per_node_per_min = 0.0;
  /// Mistakes booked (a mistake is defined in cluster/fault_state.hpp;
  /// one still open at the end is not counted) and their summed length,
  /// which is exact to the microsecond.
  std::int64_t mistakes = 0;
  double mistake_ms = 0.0;

  // Group membership (ClusterConfig::exclusion; zero and empty without).
  /// The ids the group excluded, ascending.
  std::vector<int> excluded;
  /// Exclusions of a victim that was up: live nodes fenced to keep the
  /// group's suspect list accurate.
  std::int64_t false_exclusions = 0;
  /// Crash -> exclusion, one per victim that was already down.
  Summary exclusion_latency_ms;
  /// Every excluded node is down at the end of the run, on every shard's
  /// ground truth and in its own process: the group's suspect list is
  /// accurate (vacuously so without exclusions).
  bool excluded_down = true;

  // Agreement. A disruption is a crash/recover/leave, or a heal/storm-end
  // that found the cluster disagreeing; convergence is the time from the
  // disruption until every live node's suspect set matches the true
  // crashed set (ignorance of never-met nodes does not count against).
  Summary convergence_ms;
  std::int64_t disruptions = 0;
  /// Disruptions superseded or still unconverged at the end of the run.
  std::int64_t unconverged_disruptions = 0;
  bool final_agreement = false;

  /// Suspicion transitions (raise/clear) over the whole run, regardless
  /// of whether the victim was actually down.
  std::int64_t suspicion_raises = 0;
  std::int64_t suspicion_clears = 0;

  // Observability (empty when tracing/profiling is off). A record counts
  // as written once the write that carried it succeeded; the records
  // and lines a failed write lost count as dropped.
  std::int64_t trace_records = 0;
  std::int64_t trace_dropped = 0;
  /// Phase-timer rollups (observe / digest / dispatch / route) when
  /// profiling was enabled.
  std::vector<obs::PhaseStat> profile;

  /// One-line human summary for demos and logs.
  std::string summary() const;
};

/// Fills the per-node rate fields from the raw counters.
void finalize_rates(ClusterReport& report);

}  // namespace rfd::cluster
