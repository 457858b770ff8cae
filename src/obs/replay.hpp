// Offline QoS re-derivation from a JSONL trace of the cluster engine,
// on either message path (the soak is the engine over a transport).
//
// Feeds the fault / suspect / clear records through the engine's own
// interpreter and ledger (cluster/fault_state.hpp):
// FaultState rebuilds the ground truth, QosLedger recounts raises, clears
// and false suspicions and re-books every mistake, and
// standing_suspicions() recomputes the engine's end-of-run detection
// samples. The live numbers are therefore
// reproduced by construction: on an engine trace they match the
// ClusterReport bit-for-bit, on a soak trace the raise/clear/false
// counts match the SoakReport (the soak's raise-time detection samples
// are not re-derived). That is the proof that a trace is a complete
// record of the run.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"

namespace rfd::obs {

struct ReplayQos {
  bool ok = false;
  std::string error;

  // From the run header.
  int n = 0;
  int max_nodes = 0;
  double duration_ms = 0.0;

  // Re-derived, same semantics as the ClusterReport fields.
  Summary detection_latency_ms;
  std::int64_t false_suspicions = 0;
  std::int64_t suspicion_raises = 0;
  std::int64_t suspicion_clears = 0;
  std::int64_t mistakes = 0;
  double mistake_ms = 0.0;  // summed length
  std::int64_t records_read = 0;
  /// Count from a "lost" accounting record, if present (a lossy trace
  /// cannot re-derive exactly; callers should check this is zero).
  std::int64_t lost_records = 0;
};

/// Parses the trace at `path` and re-derives cluster QoS. Only the fixed
/// record grammar produced by TraceWriter is understood.
ReplayQos replay_qos(const std::string& path);

}  // namespace rfd::obs
