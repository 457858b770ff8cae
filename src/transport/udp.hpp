// UdpTransport: real non-blocking UDP sockets behind the Transport
// interface (Linux-only; epoll + recvmmsg/sendmmsg).
//
// Loopback deployment model: one process hosts all `max_nodes` node
// identities, each bound to 127.0.0.1:(base_port + id). Datagrams are
// framed with a 12-byte header (magic, from, to) so a receiver never
// trusts source ports, and ride a real kernel socket path - real
// syscalls, real buffer pressure, real drops - which is what the soak
// runs exercise that the simulator cannot. The soak is the cluster
// engine over this transport: it sends at pump times and polls at each
// check tick, so every delivery is stamped with its poll time.
//
// Mechanics:
//   - every socket is O_NONBLOCK and registered with one epoll instance;
//     poll() does a zero-timeout epoll_wait and drains ready sockets
//     with recvmmsg in batches;
//   - send() never blocks: frames enter a bounded queue, and poll()
//     first puts on the wire, with sendmmsg grouped by source socket,
//     what the previous poll left queued, then reads. A datagram is
//     thus read one poll after the one that followed its send, instead
//     of in the poll that released it (loopback delivers synchronously).
//     EAGAIN/ENOBUFS arms an exponential backoff (retry at a later
//     poll, counted in counters().retries); a full queue drops the
//     oldest frame and counts it in queue_drops;
//   - every socket-level error emits one reason-tagged "sock_err" trace
//     record and bumps sock_errors, so the trace and the counter agree;
//   - a checkpoint carries the counters, so a resumed soak keeps counting
//     where it stopped; frames queued or in flight die with the process.
#pragma once

#include <sys/socket.h>

#include <deque>

#include "obs/record.hpp"
#include "transport/transport.hpp"

namespace rfd::transport {

struct UdpParams {
  std::uint16_t base_port = 39000;
};

class UdpTransport final : public Transport {
 public:
  /// Binds all sockets eagerly, node i on base_port + i; aborts
  /// (RFD_REQUIRE) on a port range past 65535, or when a bind or the
  /// epoll setup fails - a soak run with half its sockets is not a run.
  UdpTransport(int max_nodes, UdpParams params);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  using Transport::send;
  void send(NodeId from, NodeId to, const Payload& payload,
            double now_ms) override;
  void poll(double now_ms, std::vector<Delivery>& out) override;
  TransportCounters counters() const override;

  bool save_state(std::vector<std::uint8_t>& out) const override;
  bool restore_state(const std::uint8_t* data, std::size_t size) override;

  /// Attaches the trace sink for "sock_err" records.
  void set_trace(obs::RecordSink* trace) override { trace_ = trace; }

 private:
  struct PendingFrame {
    NodeId from;
    NodeId to;
    std::vector<std::uint8_t> frame;  // header + payload, wire-ready
  };

  void flush_sends(double now_ms);
  void drain_socket(int index, double now_ms, std::vector<Delivery>& out);
  void note_sock_error(NodeId node, const char* op, int err, double now_ms);

  UdpParams params_;
  int max_nodes_;
  int epoll_fd_ = -1;
  std::vector<int> fds_;  // fds_[i] = node i's socket
  std::deque<PendingFrame> send_queue_;
  std::vector<std::uint8_t> bytes_;  // the payload being sent
  /// Frames at the queue's front that were queued when the last poll
  /// returned: what the next poll puts on the wire.
  std::size_t due_ = 0;
  double backoff_until_ms_ = -1.0;
  double backoff_cur_ms_ = 0.0;
  obs::RecordSink* trace_ = nullptr;
  TransportCounters counters_;

  // recvmmsg scratch (sized once): batch headers, iovecs, buffers.
  std::vector<std::vector<std::uint8_t>> recv_bufs_;
  std::vector<mmsghdr> recv_msgs_;
  std::vector<iovec> recv_iovs_;
};

}  // namespace rfd::transport
