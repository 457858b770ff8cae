#include "transport/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace rfd::transport {

namespace {

constexpr std::uint32_t kFrameMagic = 0x52464448u;  // "RFDH"
constexpr std::size_t kHeaderBytes = 12;            // magic + from + to
constexpr std::size_t kMaxDatagram = 2048;          // digests are small
/// Bounded send-queue capacity (frames); overflow drops the oldest.
constexpr std::size_t kSendQueueCap = 4096;
/// recvmmsg/sendmmsg batch size.
constexpr std::size_t kBatch = 64;
/// Exponential backoff after EAGAIN/ENOBUFS: first retry after
/// kBackoffMs, doubling up to kBackoffMaxMs.
constexpr double kBackoffMs = 0.5;
constexpr double kBackoffMaxMs = 32.0;
/// SO_RCVBUF/SO_SNDBUF request per socket.
constexpr int kSocketBufferBytes = 1 << 20;

void put_header(std::uint8_t* p, NodeId from, NodeId to) {
  const std::uint32_t fields[3] = {kFrameMagic,
                                   static_cast<std::uint32_t>(from),
                                   static_cast<std::uint32_t>(to)};
  std::memcpy(p, fields, kHeaderBytes);
}

bool read_header(const std::uint8_t* p, std::size_t size, NodeId& from,
                 NodeId& to) {
  if (size < kHeaderBytes) return false;
  std::uint32_t fields[3];
  std::memcpy(fields, p, kHeaderBytes);
  if (fields[0] != kFrameMagic) return false;
  from = static_cast<NodeId>(fields[1]);
  to = static_cast<NodeId>(fields[2]);
  return true;
}

/// The counters in checkpoint order.
constexpr std::int64_t TransportCounters::*kCounts[] = {
    &TransportCounters::sent,        &TransportCounters::delivered,
    &TransportCounters::dropped,     &TransportCounters::duplicated,
    &TransportCounters::queue_drops, &TransportCounters::retries,
    &TransportCounters::sock_errors};

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(int max_nodes, UdpParams params)
    : params_(params), max_nodes_(max_nodes) {
  RFD_REQUIRE(max_nodes > 0 && max_nodes < 4096);
  // Node i binds base_port + i: the range must stay a valid port range.
  RFD_REQUIRE(params.base_port >= 1 &&
              params.base_port + max_nodes - 1 <= 65535);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  RFD_REQUIRE_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  fds_.resize(static_cast<std::size_t>(max_nodes), -1);
  for (int i = 0; i < max_nodes; ++i) {
    const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    RFD_REQUIRE_MSG(fd >= 0, "socket() failed");
    // Best effort; the kernel clamps to its limits.
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kSocketBufferBytes, sizeof(int));
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSocketBufferBytes, sizeof(int));
    sockaddr_in addr = loopback_addr(
        static_cast<std::uint16_t>(params_.base_port + i));
    RFD_REQUIRE_MSG(
        bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
        "bind() failed - is the base port range free?");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    RFD_REQUIRE_MSG(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                    "epoll_ctl(ADD) failed");
    fds_[static_cast<std::size_t>(i)] = fd;
  }
  recv_bufs_.resize(kBatch);
  for (auto& buf : recv_bufs_) buf.resize(kMaxDatagram);
  recv_msgs_.resize(kBatch);
  recv_iovs_.resize(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    recv_iovs_[i].iov_base = recv_bufs_[i].data();
    recv_iovs_[i].iov_len = recv_bufs_[i].size();
    recv_msgs_[i].msg_hdr.msg_iov = &recv_iovs_[i];
    recv_msgs_[i].msg_hdr.msg_iovlen = 1;
  }

}

UdpTransport::~UdpTransport() {
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void UdpTransport::note_sock_error(NodeId node, const char* op, int err,
                                   double now_ms) {
  ++counters_.sock_errors;
  if (trace_ == nullptr) return;
  obs::Record r;
  r.t = now_ms;
  r.type = obs::RecordType::kSockErr;
  r.a = node;
  r.c = err;
  r.s = op;
  trace_->emit(r);
}

void UdpTransport::send(NodeId from, NodeId to, const Payload& payload,
                        double now_ms) {
  if (from < 0 || from >= max_nodes_ || to < 0 || to >= max_nodes_) return;
  (void)now_ms;
  bytes_.clear();
  payload.write(bytes_);
  RFD_REQUIRE_MSG(bytes_.size() + kHeaderBytes <= kMaxDatagram,
                  "payload exceeds the transport's datagram bound");
  if (send_queue_.size() >= kSendQueueCap) {
    // Bounded queue: shed the oldest frame (it is the stalest heartbeat
    // - the protocol tolerates loss, not unbounded queueing delay).
    send_queue_.pop_front();
    ++counters_.queue_drops;
    if (due_ > 0) --due_;
  }
  PendingFrame f;
  f.from = from;
  f.to = to;
  f.frame.resize(kHeaderBytes + bytes_.size());
  put_header(f.frame.data(), from, to);
  std::copy(bytes_.begin(), bytes_.end(), f.frame.begin() + kHeaderBytes);
  send_queue_.push_back(std::move(f));
  ++counters_.sent;
}

void UdpTransport::flush_sends(double now_ms) {
  if (due_ == 0) return;
  if (backoff_until_ms_ >= 0.0 && now_ms < backoff_until_ms_) return;
  // Sized for a whole batch, so the pointers below stay valid.
  std::vector<mmsghdr> msgs;
  std::vector<iovec> iovs;
  std::vector<sockaddr_in> addrs;
  msgs.reserve(kBatch);
  iovs.reserve(kBatch);
  addrs.reserve(kBatch);
  while (due_ > 0) {
    // Group a sendmmsg batch by source socket: frames from one sender
    // go out in one syscall. The queue is FIFO per sender, preserving
    // the kernel-visible send order.
    const NodeId from = send_queue_.front().from;
    const int fd = fds_[static_cast<std::size_t>(from)];
    const std::size_t batch = std::min(due_, kBatch);
    msgs.clear();
    iovs.clear();
    addrs.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      PendingFrame& f = send_queue_[i];
      if (f.from != from) break;
      addrs.push_back(loopback_addr(
          static_cast<std::uint16_t>(params_.base_port + f.to)));
      iovec iov{};
      iov.iov_base = f.frame.data();
      iov.iov_len = f.frame.size();
      iovs.push_back(iov);
      mmsghdr m{};
      m.msg_hdr.msg_name = &addrs.back();
      m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
      m.msg_hdr.msg_iov = &iovs.back();
      m.msg_hdr.msg_iovlen = 1;
      msgs.push_back(m);
    }
    const int n = static_cast<int>(
        sendmmsg(fd, msgs.data(), static_cast<unsigned>(msgs.size()), 0));
    if (n < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS) {
        // Kernel buffer pressure: arm/extend the exponential backoff
        // and retry at a later poll - never busy-loop on a full buffer.
        ++counters_.retries;
        backoff_cur_ms_ = backoff_cur_ms_ <= 0.0
                              ? kBackoffMs
                              : std::min(backoff_cur_ms_ * 2.0, kBackoffMaxMs);
        backoff_until_ms_ = now_ms + backoff_cur_ms_;
        note_sock_error(from, "sendmmsg", err, now_ms);
        return;
      }
      // Hard error (e.g. EPERM from a firewall): drop this sender's
      // head frame so the queue keeps moving, and record why.
      note_sock_error(from, "sendmmsg", err, now_ms);
      send_queue_.pop_front();
      ++counters_.queue_drops;
      --due_;
      continue;
    }
    send_queue_.erase(send_queue_.begin(), send_queue_.begin() + n);
    due_ -= static_cast<std::size_t>(n);
    backoff_until_ms_ = -1.0;
    backoff_cur_ms_ = 0.0;
    if (static_cast<std::size_t>(n) < msgs.size()) {
      // Partial batch: the kernel accepted a prefix; try again next
      // poll rather than spinning.
      return;
    }
  }
}

void UdpTransport::drain_socket(int index, double now_ms,
                                std::vector<Delivery>& out) {
  const int fd = fds_[static_cast<std::size_t>(index)];
  const std::size_t batch = recv_bufs_.size();
  std::vector<mmsghdr>& msgs = recv_msgs_;
  for (;;) {
    const int n = static_cast<int>(
        recvmmsg(fd, msgs.data(), static_cast<unsigned>(batch), 0, nullptr));
    if (n < 0) {
      const int err = errno;
      if (err != EAGAIN && err != EWOULDBLOCK) {
        note_sock_error(static_cast<NodeId>(index), "recvmmsg", err, now_ms);
      }
      return;
    }
    for (int i = 0; i < n; ++i) {
      const mmsghdr& msg = msgs[static_cast<std::size_t>(i)];
      const std::size_t len = msg.msg_len;
      const std::uint8_t* frame = recv_bufs_[static_cast<std::size_t>(i)]
                                      .data();
      NodeId from = -1;
      NodeId to = -1;
      if ((msg.msg_hdr.msg_flags & MSG_TRUNC) != 0 ||
          !read_header(frame, len, from, to) || from < 0 ||
          from >= max_nodes_ || to != static_cast<NodeId>(index)) {
        // Stray, corrupt or oversized datagram on our port range (one
        // longer than kMaxDatagram arrives cut short); count and drop.
        note_sock_error(static_cast<NodeId>(index), "frame", EBADMSG,
                        now_ms);
        continue;
      }
      Delivery d;
      d.at_ms = now_ms;
      d.from = from;
      d.to = to;
      d.payload.assign(frame + kHeaderBytes, frame + len);
      out.push_back(std::move(d));
      ++counters_.delivered;
    }
    if (static_cast<std::size_t>(n) < batch) return;  // drained
  }
}

void UdpTransport::poll(double now_ms, std::vector<Delivery>& out) {
  // What earlier polls left queued goes on the wire first, then the
  // sockets are read; frames queued since wait for the next poll.
  flush_sends(now_ms);
  epoll_event events[64];
  for (int n = 64; n == 64;) {
    n = epoll_wait(epoll_fd_, events, 64, 0);
    if (n < 0 && errno != EINTR) {
      note_sock_error(-1, "epoll_wait", errno, now_ms);
    }
    for (int i = 0; i < n; ++i) {
      drain_socket(static_cast<int>(events[i].data.u32), now_ms, out);
    }
  }
  due_ = send_queue_.size();
}

TransportCounters UdpTransport::counters() const { return counters_; }

bool UdpTransport::save_state(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  for (const auto count : kCounts) w.i64(counters_.*count);
  return true;
}

bool UdpTransport::restore_state(const std::uint8_t* data,
                                 std::size_t size) {
  ByteReader r(data, size);
  TransportCounters restored;
  for (const auto count : kCounts) restored.*count = r.i64();
  if (!r.ok() || r.remaining() != 0) return false;
  counters_ = restored;
  return true;
}

}  // namespace rfd::transport
