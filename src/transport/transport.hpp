// Transport abstraction for the heartbeat send/receive path.
//
// The cluster engine carries every heartbeat through this interface, one
// Transport per shard: the caller's (ClusterConfig::transport, on one
// shard - that is the soak, transport/soak.hpp) or, when the
// configuration brings none, one endpoint per shard of the engine's own
// in-process network (private to cluster/engine.cpp). The
// implementations outside the engine:
//
//   UdpTransport   (transport/udp.hpp)   - real non-blocking UDP sockets
//     on epoll, with a bounded send queue and retry-with-backoff.
//   FlakyTransport (transport/flaky.hpp) - runs every datagram through a
//     simulated verdict network (loss, delay, partitions, duplication),
//     driven by the same scenario fault surface the simulator uses.
//     With no inner wire its poll() hands over what it releases: the
//     deterministic, fully checkpointable sim backend. Over UDP it
//     injects the same .scn faults into real sockets - so one .scn file
//     exercises both backends through one injection implementation.
//
// The engine owns the clock: `now_ms` on send() is a pump time and on
// poll() a check tick, both simulated ms. A transport never calls back
// into the engine; deliveries are pulled with poll(), which keeps the
// sim backend deterministic. UDP stamps each delivery with its poll time.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/network.hpp"

namespace rfd::transport {

using NodeId = rt::NodeId;

/// Uniform counters every backend maintains; the engine writes a
/// caller's transport's into its `snap` records (transport.* gauges) and
/// the soak into its report.
struct TransportCounters {
  std::int64_t sent = 0;         // datagrams accepted by send()
  std::int64_t delivered = 0;    // datagrams surfaced by poll()
  std::int64_t dropped = 0;      // injected verdict drops (loss/partition)
  std::int64_t duplicated = 0;   // flaky duplicates created
  std::int64_t queue_drops = 0;  // bounded send-queue overflow drops
  std::int64_t retries = 0;      // EAGAIN/ENOBUFS retry attempts
  std::int64_t sock_errors = 0;  // socket-level errors observed
};

/// One received datagram: who sent it, when it arrived on the engine's
/// clock, and the opaque payload bytes.
struct Delivery {
  double at_ms = 0.0;
  NodeId from = -1;
  NodeId to = -1;
  /// Tiebreak between a sender's datagrams arriving at one instant: the
  /// engine's own endpoints stamp its send sequence, other backends
  /// leave 0 and the engine, sorting stably, keeps their poll order.
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// Bytes a backend writes on demand into a buffer of its own. The
/// engine's digests are encoded - and counted as cluster.payload_bytes -
/// only where a backend writes them.
class Payload {
 public:
  /// Appends the payload's bytes to `out`.
  virtual void write(std::vector<std::uint8_t>& out) const = 0;

 protected:
  ~Payload() = default;
};

/// The Payload whose write() calls `write(out)`.
template <class Write>
class PayloadOf final : public Payload {
 public:
  explicit PayloadOf(Write write) : write_(std::move(write)) {}
  void write(std::vector<std::uint8_t>& out) const override { write_(out); }

 private:
  Write write_;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Hands one datagram to the transport at driver time `now_ms`; the
  /// backend writes `payload` when it needs the bytes. Delivery (or loss)
  /// is decided by the backend; send() never blocks.
  virtual void send(NodeId from, NodeId to, const Payload& payload,
                    double now_ms) = 0;

  /// The same for bytes the caller holds.
  void send(NodeId from, NodeId to, const std::uint8_t* data,
            std::size_t size, double now_ms) {
    send(from, to, PayloadOf([=](std::vector<std::uint8_t>& out) {
           out.insert(out.end(), data, data + size);
         }),
         now_ms);
  }

  /// Appends every datagram due by `now_ms` to `out`, in a deterministic
  /// order for the sim backend (arrival time, then send sequence).
  virtual void poll(double now_ms, std::vector<Delivery>& out) = 0;

  /// Takes back a batch poll() returned, once the engine has applied it,
  /// and leaves it empty. A backend that pools its buffers keeps them.
  virtual void recycle(std::vector<Delivery>& batch) { batch.clear(); }

  virtual TransportCounters counters() const = 0;

  /// The scenario fault surface: a transport carrying a simulated
  /// verdict network (flaky, the engine's own endpoints) exposes it so
  /// partitions / loss / slow factors / storms from a .scn timeline
  /// apply at this boundary. UDP returns nullptr - wrap it in
  /// FlakyTransport for faults.
  virtual rt::Network* fault_network() { return nullptr; }

  /// Attaches the sink for the backend's own records (drop verdicts,
  /// socket errors); a wrapper forwards it to its inner transport.
  virtual void set_trace(obs::RecordSink* trace) { (void)trace; }

  /// Checkpoint hooks; save_state() returns false when the backend saves
  /// nothing, as the engine's own endpoints do (their runs never
  /// checkpoint). Flaky serializes its hold buffer, send sequence, RNG
  /// streams and counts, then its inner transport's state. UDP saves its
  /// counters only: in-flight datagrams die with the process - a resumed
  /// run simply re-heartbeats, which the protocol tolerates by design.
  /// restore_state() returns false on a payload that is truncated or
  /// from a different configuration.
  virtual bool save_state(std::vector<std::uint8_t>& /*out*/) const {
    return false;
  }
  virtual bool restore_state(const std::uint8_t* /*data*/,
                             std::size_t /*size*/) {
    return false;
  }
};

}  // namespace rfd::transport
