// Typed trace records for the streaming observability layer.
//
// The engine's hot path never formats: it stores one fixed-size POD Record
// into its shard's staging buffer and returns. The engine merges the
// shards' buffers once per check window and the writer formats the merged
// records into JSONL with a fixed field order per type (see
// trace_writer.cpp), so a fixed seed produces a byte-identical trace.
// Variable-length payloads are restricted to pointers to *static* strings
// (fault kind names, socket ops), which stay valid across the deferred
// formatting.
#pragma once

#include <cstdint>

namespace rfd::obs {

enum class RecordType : std::uint8_t {
  kHbSend,    // node a sent a heartbeat message to peer b carrying c entries
  kHbRecv,    // node a received from peer b: c entries, x of them advances
  kDrop,      // message a -> b dropped; s = verdict ("partition" | "loss")
  kSuspect,   // observer a raised suspicion of victim b (c = truth: 1 down)
  kClear,     // observer a cleared its suspicion of victim b
  kFault,     // scenario fault applied; s = kind, a = node, x/y = extras
  kLeader,    // node a flipped acting-leader status (c) for cluster b
  kSockErr,   // transport socket error on node a: s = op ("sendmmsg"...),
              // c = errno; one record per error counted
};

/// Fixed-size hot-path record. Field meanings depend on `type` (above);
/// `t` is always the simulation clock in ms.
struct Record {
  double t = 0.0;
  RecordType type = RecordType::kHbSend;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int64_t c = 0;
  double x = 0.0;
  double y = 0.0;
  /// Static-lifetime string payload (never owned), or nullptr.
  const char* s = nullptr;
};

/// Destination for hot-path records. TraceWriter is the terminal sink
/// (formats each record into its drain buffer); the cluster engine
/// interposes per-shard staging buffers that are merged into one writer
/// in a deterministic order at each barrier. Emitters (network, topology,
/// engine) hold a RecordSink* so they work identically under both.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void emit(const Record& r) = 0;
};

}  // namespace rfd::obs
