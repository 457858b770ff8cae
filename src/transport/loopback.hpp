// LoopbackTransport: an in-process wire with no network of its own.
//
// send() queues each datagram stamped with its send time and poll()
// hands the whole queue over in send order: no verdicts, no delay, no
// RNG. Under a FlakyTransport, whose verdict network decides every loss
// and delay and releases each survivor onto the wire at its arrival
// time, it makes the soak's deterministic sim backend.
#pragma once

#include <utility>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "transport/transport.hpp"

namespace rfd::transport {

class LoopbackTransport final : public Transport {
 public:
  void send(NodeId from, NodeId to, const std::uint8_t* data,
            std::size_t size, double now_ms) override {
    Delivery d;
    d.at_ms = now_ms;
    d.from = from;
    d.to = to;
    d.payload.assign(data, data + size);
    queue_.push_back(std::move(d));
    ++sent_;
  }

  void poll(double /*now_ms*/, std::vector<Delivery>& out) override {
    delivered_ += static_cast<std::int64_t>(queue_.size());
    for (Delivery& d : queue_) out.push_back(std::move(d));
    queue_.clear();
  }

  TransportCounters counters() const override {
    TransportCounters c;
    c.sent = sent_;
    c.delivered = delivered_;
    return c;
  }

  /// Only the counters: a checkpoint is taken between polls, when the
  /// queue is empty.
  bool save_state(std::vector<std::uint8_t>& out) const override {
    RFD_REQUIRE_MSG(queue_.empty(),
                    "loopback wire checkpointed with datagrams queued");
    ByteWriter w(out);
    w.i64(sent_);
    w.i64(delivered_);
    return true;
  }

  bool restore_state(const std::uint8_t* data, std::size_t size) override {
    ByteReader r(data, size);
    const std::int64_t sent = r.i64();
    const std::int64_t delivered = r.i64();
    if (!r.ok() || r.remaining() != 0) return false;
    sent_ = sent;
    delivered_ = delivered;
    queue_.clear();
    return true;
  }

 private:
  std::vector<Delivery> queue_;
  std::int64_t sent_ = 0;
  std::int64_t delivered_ = 0;
};

}  // namespace rfd::transport
