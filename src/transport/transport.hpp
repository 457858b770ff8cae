// Transport abstraction for the heartbeat send/receive path.
//
// Without one, the cluster engine simulates its network inline, sharded
// (see cluster/engine.cpp). Handed one (ClusterConfig::transport), the
// engine pushes its digests through it as opaque datagrams - that is the
// soak (transport/soak.hpp). There are three implementations:
//
//   LoopbackTransport (transport/loopback.hpp) - an in-process wire:
//     send() queues, poll() hands the queue over; no verdicts, no delay.
//   UdpTransport      (transport/udp.hpp)      - real non-blocking UDP
//     sockets on epoll, batched recvmmsg/sendmmsg, bounded send queue
//     with drop accounting and EAGAIN/ENOBUFS retry-with-backoff.
//   FlakyTransport    (transport/flaky.hpp)    - composable wrapper that
//     runs every datagram through a simulated verdict network (loss,
//     delay, partitions, duplication) before the inner send, driven by
//     the same scenario fault surface the simulator uses. Over the
//     loopback wire it is the deterministic, fully checkpointable sim
//     backend; over UDP it injects the same .scn faults into real
//     sockets - so one .scn file exercises both backends through one
//     injection implementation.
//
// The engine owns the clock: `now_ms` on send() is a pump time and on
// poll() a check tick, both simulated ms. A transport never calls back
// into the engine; deliveries are pulled with poll(), which keeps the
// sim backend deterministic. UDP stamps each delivery with its poll time.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/network.hpp"

namespace rfd::transport {

using NodeId = rt::NodeId;

/// Uniform counters every backend maintains; the engine snapshots them
/// into its obs::Registry (transport.* gauges) and the soak into its
/// report.
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
  std::vector<std::uint8_t> payload;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Hands one datagram to the transport at driver time `now_ms`.
  /// Delivery (or loss) is decided by the backend; send() never blocks.
  virtual void send(NodeId from, NodeId to, const std::uint8_t* data,
                    std::size_t size, double now_ms) = 0;

  /// Appends every datagram due by `now_ms` to `out`, in a deterministic
  /// order for the sim backend (arrival time, then send sequence).
  virtual void poll(double now_ms, std::vector<Delivery>& out) = 0;

  virtual TransportCounters counters() const = 0;

  /// The scenario fault surface: a transport carrying a simulated
  /// verdict network (flaky) exposes it so partitions / loss / slow
  /// factors / storms from a .scn timeline apply at this boundary. Raw
  /// transports (loopback, udp) return nullptr - wrap them in
  /// FlakyTransport for faults.
  virtual rt::Network* fault_network() { return nullptr; }

  /// Attaches the sink for the backend's own records (drop verdicts,
  /// socket errors); a wrapper forwards it to its inner transport.
  virtual void set_trace(obs::RecordSink* trace) { (void)trace; }

  /// Checkpoint hooks. Flaky serializes its hold buffer, send sequence
  /// and RNG streams (then its inner transport's state), loopback its
  /// counters, and both return true; wall-clock transports return false
  /// (in-flight UDP datagrams die with the process - a resumed run simply
  /// re-heartbeats, which the protocol tolerates by design).
  /// restore_state() returns false on a payload that is truncated or
  /// from a different configuration.
  virtual bool save_state(std::vector<std::uint8_t>& out) const {
    (void)out;
    return false;
  }
  virtual bool restore_state(const std::uint8_t* data, std::size_t size) {
    (void)data;
    (void)size;
    return false;
  }
};

}  // namespace rfd::transport
