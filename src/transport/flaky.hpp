// FlakyTransport: socket-boundary fault injection over any Transport.
//
// Every datagram meets the simulated network's fate machinery before it
// reaches the inner send: random loss, partitions, directed link blocks,
// slow factors and delay storms all apply, driven by the same scenario
// DSL fault timeline the simulator runs. Survivors wait in a hold buffer
// and go to the inner transport at their release time; because held
// copies leave in delay order rather than send order, jittered delays
// reorder datagrams exactly the way a congested real path does. On top
// of the Network verdicts it adds duplication (a second copy with an
// independently drawn delay). The payload is written before the verdict:
// a datagram the injector drops was still sent.
//
// Over UdpTransport this injects a .scn fault schedule into real
// sockets. With no inner transport (nullptr) the hold buffer is the
// wire: poll() hands over each released datagram stamped with its
// release time, and counts it as delivered. That is the soak's sim
// backend: the verdict network is the whole simulated network, and
// since the hold buffer, the send sequence, the counts and every RNG
// stream serialize, it checkpoints and resumes draw for draw.
//
// The verdict network has no clock of its own: the transport keeps the
// latest time its driver passed to send() or poll() and hands it to
// every verdict (the GST test, drop-record timestamps). That time is
// part of the checkpoint.
#pragma once

#include <memory>
#include <set>

#include "transport/transport.hpp"

namespace rfd::transport {

struct FlakyParams {
  /// Verdict/delay model applied at the boundary (loss_prob, delay
  /// distribution, GST chaos - see rt::NetworkParams).
  rt::NetworkParams network;
  /// Probability that a surviving datagram is duplicated; the copy draws
  /// its own delay (and its own loss verdict), so duplicates reorder.
  double dup_prob = 0.0;
};

class FlakyTransport final : public Transport {
 public:
  /// `inner` may be null: the transport is then its own wire.
  FlakyTransport(std::unique_ptr<Transport> inner, int max_nodes,
                 std::uint64_t seed, FlakyParams params);

  using Transport::send;
  void send(NodeId from, NodeId to, const Payload& payload,
            double now_ms) override;
  void poll(double now_ms, std::vector<Delivery>& out) override;
  TransportCounters counters() const override;
  rt::Network* fault_network() override { return net_.get(); }

  bool save_state(std::vector<std::uint8_t>& out) const override;
  bool restore_state(const std::uint8_t* data, std::size_t size) override;

  /// The injection network's drop records, and the inner transport's.
  void set_trace(obs::RecordSink* trace) override {
    net_->set_trace(trace);
    if (inner_ != nullptr) inner_->set_trace(trace);
  }

 private:
  struct Held {
    double release_at_ms;
    std::uint64_t seq;
    NodeId from;
    NodeId to;
    std::vector<std::uint8_t> payload;
    bool operator<(const Held& o) const {
      if (release_at_ms != o.release_at_ms) {
        return release_at_ms < o.release_at_ms;
      }
      return seq < o.seq;
    }
  };

  /// Moves now_ms_ forward to `now_ms`; it never moves back.
  void advance_clock(double now_ms);

  std::unique_ptr<Transport> inner_;
  int max_nodes_;
  double now_ms_ = 0.0;  // latest driver time; the verdicts' clock
  std::unique_ptr<rt::Network> net_;
  Rng dup_rng_;
  FlakyParams params_;
  std::set<Held> held_;
  /// The payload being sent; held copies take exactly its size.
  std::vector<std::uint8_t> bytes_;
  std::uint64_t seq_ = 0;
  std::int64_t duplicated_ = 0;
  std::int64_t delivered_ = 0;  // released to poll() with no inner wire
  // Datagrams accepted by send() - the injection verdicts (and the dup
  // copies' own verdicts) run through net_, whose sent() therefore
  // overcounts; counters().sent reports this instead.
  std::int64_t offered_ = 0;
};

}  // namespace rfd::transport
