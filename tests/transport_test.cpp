// Transport backend tests: the sim backend's determinism and
// checkpointing (a FlakyTransport with no inner wire), FlakyTransport
// injection accounting, a real-socket UdpTransport loopback smoke
// (frames cross the kernel, garbage is rejected), and the cluster
// engine dropping crafted payloads from a caller's transport.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/digest_codec.hpp"
#include "cluster/engine.hpp"
#include "common/rng.hpp"
#include "obs/trace_writer.hpp"
#include "transport/flaky.hpp"
#include "transport/soak.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

namespace rfd::transport {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> list) {
  std::vector<std::uint8_t> out;
  for (int v : list) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

rt::NetworkParams lossless() {
  rt::NetworkParams params;
  params.loss_prob = 0.0;
  params.pre_gst_chaos_prob = 0.0;
  params.pre_gst_extra_ms = 0.0;
  params.gst_ms = 0.0;
  return params;
}

/// The soak's sim backend: a verdict network whose hold buffer is the
/// wire.
std::unique_ptr<FlakyTransport> sim_transport(int max_nodes,
                                              std::uint64_t seed,
                                              rt::NetworkParams params) {
  FlakyParams sim;
  sim.network = params;
  return std::make_unique<FlakyTransport>(nullptr, max_nodes, seed, sim);
}

/// Waits between two polls of a test waiting for datagrams.
void between_polls() {
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

std::vector<Delivery> drain(Transport& t, double now_ms) {
  std::vector<Delivery> out;
  t.poll(now_ms, out);
  return out;
}

TEST(SimTransport, DeliversAfterModelDelay) {
  auto sim = sim_transport(4, 99, lossless());
  const auto payload = bytes({1, 2, 3, 250});
  sim->send(0, 2, payload.data(), payload.size(), 0.0);

  // Nothing surfaces before the minimum network delay has elapsed.
  EXPECT_TRUE(drain(*sim, 0.0).empty());

  const auto got = drain(*sim, 10'000.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, 0);
  EXPECT_EQ(got[0].to, 2);
  EXPECT_EQ(got[0].payload, payload);
  EXPECT_GT(got[0].at_ms, 0.0);
  EXPECT_EQ(sim->counters().sent, 1);
  EXPECT_EQ(sim->counters().delivered, 1);
  EXPECT_EQ(sim->counters().dropped, 0);
}

TEST(SimTransport, IdenticalSeedsProduceIdenticalStreams) {
  auto a = sim_transport(8, 1234, lossless());
  auto b = sim_transport(8, 1234, lossless());
  const auto payload = bytes({7});
  for (int k = 0; k < 200; ++k) {
    const NodeId from = k % 8;
    const NodeId to = (k + 3) % 8;
    const double t = k * 10.0;
    a->send(from, to, payload.data(), payload.size(), t);
    b->send(from, to, payload.data(), payload.size(), t);
  }
  const auto ga = drain(*a, 1e9);
  const auto gb = drain(*b, 1e9);
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_DOUBLE_EQ(ga[i].at_ms, gb[i].at_ms);
    EXPECT_EQ(ga[i].from, gb[i].from);
    EXPECT_EQ(ga[i].to, gb[i].to);
  }
  // poll() order is (arrival time, send sequence): non-decreasing time.
  for (std::size_t i = 1; i < ga.size(); ++i) {
    EXPECT_GE(ga[i].at_ms, ga[i - 1].at_ms);
  }
}

TEST(SimTransport, SaveRestoreContinuesDrawForDraw) {
  rt::NetworkParams params = lossless();
  params.loss_prob = 0.2;  // make the RNG stream position matter
  auto live = sim_transport(6, 777, params);
  const auto payload = bytes({42, 43});
  for (int k = 0; k < 50; ++k) {
    live->send(k % 6, (k + 1) % 6, payload.data(), payload.size(), k * 5.0);
  }
  (void)drain(*live, 120.0);  // consume a prefix, leave some in flight

  std::vector<std::uint8_t> snapshot;
  ASSERT_TRUE(live->save_state(snapshot));
  // Same params (config travels via the constructor, guarded by the
  // soak config fingerprint), wrong seed on purpose: restore overwrites
  // every RNG stream position.
  auto restored = sim_transport(6, 1, params);
  ASSERT_TRUE(restored->restore_state(snapshot.data(), snapshot.size()));

  // From here both must behave identically: same verdicts, same delays.
  for (int k = 0; k < 50; ++k) {
    const double t = 200.0 + k * 5.0;
    live->send(k % 6, (k + 2) % 6, payload.data(), payload.size(), t);
    restored->send(k % 6, (k + 2) % 6, payload.data(), payload.size(), t);
  }
  const auto ga = drain(*live, 1e9);
  const auto gb = drain(*restored, 1e9);
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_DOUBLE_EQ(ga[i].at_ms, gb[i].at_ms);
    EXPECT_EQ(ga[i].from, gb[i].from);
    EXPECT_EQ(ga[i].to, gb[i].to);
    EXPECT_EQ(ga[i].payload, gb[i].payload);
  }
  EXPECT_EQ(live->counters().sent, restored->counters().sent);
  EXPECT_EQ(live->counters().delivered, restored->counters().delivered);
  EXPECT_EQ(live->counters().dropped, restored->counters().dropped);

  // A truncated snapshot must be refused, not half-applied.
  auto victim = sim_transport(6, 777, params);
  EXPECT_FALSE(victim->restore_state(snapshot.data(), snapshot.size() / 2));
}

TEST(SimTransport, LossIsAccounted) {
  rt::NetworkParams params = lossless();
  params.loss_prob = 0.4;
  auto sim = sim_transport(4, 5, params);
  const auto payload = bytes({9});
  const int total = 500;
  for (int k = 0; k < total; ++k) {
    sim->send(0, 1, payload.data(), payload.size(), k * 1.0);
  }
  const auto got = drain(*sim, 1e9);
  const TransportCounters c = sim->counters();
  EXPECT_EQ(c.sent, total);
  EXPECT_GT(c.dropped, 0);
  EXPECT_GT(c.delivered, 0);
  EXPECT_EQ(c.delivered + c.dropped, total);
  EXPECT_EQ(static_cast<std::int64_t>(got.size()), c.delivered);
}

TEST(FlakyTransport, InjectsLossDuplicationAndPartitions) {
  FlakyParams flaky;
  flaky.network = lossless();
  flaky.network.loss_prob = 0.2;
  flaky.dup_prob = 0.3;
  FlakyTransport t(sim_transport(4, 11, lossless()), 4, 12, flaky);
  const auto payload = bytes({5, 6});
  const int total = 400;
  for (int k = 0; k < total; ++k) {
    t.send(0, 1, payload.data(), payload.size(), k * 1.0);
  }
  const auto got = drain(t, 1e9);
  const TransportCounters c = t.counters();
  EXPECT_EQ(c.sent, total);
  EXPECT_GT(c.dropped, 0);
  EXPECT_GT(c.duplicated, 0);
  EXPECT_GT(c.delivered, 0);
  EXPECT_EQ(static_cast<std::int64_t>(got.size()), c.delivered);
  // Every offered datagram plus every surviving duplicate either landed
  // or was eaten by the injector; nothing vanishes unaccounted.
  EXPECT_GE(c.delivered + c.dropped, c.sent + c.duplicated);
  for (const auto& d : got) EXPECT_EQ(d.payload, payload);

  // The injection layer exposes the scenario fault surface: a partition
  // installed on it kills delivery even though the inner sim is clean.
  ASSERT_NE(t.fault_network(), nullptr);
  t.fault_network()->set_partition({{0, 1}, {2, 3}});
  const std::int64_t dropped_before = t.counters().dropped;
  for (int k = 0; k < 50; ++k) {
    t.send(0, 2, payload.data(), payload.size(), 1'000.0 + k);
  }
  EXPECT_TRUE(drain(t, 1e9).empty());
  EXPECT_EQ(t.counters().dropped, dropped_before + 50);
  t.fault_network()->clear_partition();
}

TEST(UdpTransport, LoopbackRoundTrip) {
  UdpParams params;
  params.base_port = 41000;  // away from the soak default
  UdpTransport udp(4, params);
  const auto ping = bytes({0xde, 0xad, 1, 2, 3});
  const auto pong = bytes({0xbe, 0xef});
  udp.send(0, 1, ping.data(), ping.size(), 0.0);
  udp.send(3, 2, pong.data(), pong.size(), 0.0);

  std::vector<Delivery> got;
  for (int spins = 0; spins < 200 && got.size() < 2; ++spins) {
    between_polls();
    udp.poll(spins * 10.0, got);
  }
  ASSERT_EQ(got.size(), 2u) << "loopback datagrams lost";
  // Kernel scheduling does not promise cross-socket order; match by to.
  const Delivery& to1 = got[0].to == 1 ? got[0] : got[1];
  const Delivery& to2 = got[0].to == 2 ? got[0] : got[1];
  EXPECT_EQ(to1.from, 0);
  EXPECT_EQ(to1.payload, ping);
  EXPECT_EQ(to2.from, 3);
  EXPECT_EQ(to2.payload, pong);
  EXPECT_EQ(udp.counters().sent, 2);
  EXPECT_EQ(udp.counters().delivered, 2);
  EXPECT_EQ(udp.counters().queue_drops, 0);
}

/// Collects every record emitted into it.
struct RecordLog final : obs::RecordSink {
  void emit(const obs::Record& r) override { records.push_back(r); }
  std::vector<obs::Record> records;
};

TEST(UdpTransport, RejectsGarbageFrames) {
  UdpParams params;
  params.base_port = 41100;
  UdpTransport udp(2, params);
  RecordLog log;
  udp.set_trace(&log);

  // Stray datagrams with no valid frame header, as any port scanner
  // would produce, must be dropped and counted - never delivered - and
  // each one counted is one sock_err record.
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(params.base_port + 1));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const char junk[] = "not a heartbeat";
  for (int i = 0; i < 5; ++i) {
    ASSERT_GT(::sendto(raw, junk, sizeof junk, 0,
                       reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
              0);
  }
  ::close(raw);

  std::vector<Delivery> got;
  for (int spins = 0; spins < 50 && udp.counters().sock_errors < 5;
       ++spins) {
    between_polls();
    udp.poll(spins * 10.0, got);
  }
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(udp.counters().sock_errors, 5);
  EXPECT_EQ(udp.counters().delivered, 0);
  ASSERT_EQ(log.records.size(), 5u);
  for (const obs::Record& r : log.records) {
    EXPECT_EQ(r.type, obs::RecordType::kSockErr);
    EXPECT_EQ(r.a, 1);
  }
}

TEST(UdpTransport, IgnoresOutOfRangeNodeIds) {
  UdpParams params;
  params.base_port = 41200;
  UdpTransport udp(2, params);
  const auto payload = bytes({1});
  udp.send(-1, 1, payload.data(), payload.size(), 0.0);
  udp.send(0, 2, payload.data(), payload.size(), 0.0);
  udp.send(5, 0, payload.data(), payload.size(), 0.0);
  EXPECT_EQ(udp.counters().sent, 0);  // never accepted, never queued

  // An empty payload is a legal frame (header only) and round-trips.
  udp.send(1, 0, nullptr, 0, 0.0);
  std::vector<Delivery> got;
  for (int spins = 0; spins < 200 && got.empty(); ++spins) {
    between_polls();
    udp.poll(spins * 10.0, got);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, 1);
  EXPECT_EQ(got[0].to, 0);
  EXPECT_TRUE(got[0].payload.empty());
}

TEST(UdpTransport, LargestSoakDigestFitsOneDatagram) {
  // The worst case the soak's digest cap admits: kMaxSoakDigest entries
  // with ids spread over the whole UdpTransport id space and every
  // counter (the sender's own included) at the 32-bit maximum, encoded
  // and decoded by the codec the soak runs.
  constexpr std::int32_t kIdSpace = 4096;
  std::vector<std::int32_t> ids;
  for (int e = 0; e < kMaxSoakDigest; ++e) ids.push_back(e * 16 + 15);
  ASSERT_EQ(ids.back(), kIdSpace - 1);
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint8_t> payload;
  cluster::DigestEncoder encoder(kIdSpace);
  encoder.encode(
      kMax, ids, [](std::int32_t) { return kMax; }, payload);

  UdpParams params;
  params.base_port = 41300;
  UdpTransport udp(2, params);
  udp.send(0, 1, payload.data(), payload.size(), 0.0);
  std::vector<Delivery> got;
  for (int spins = 0; spins < 200 && got.empty(); ++spins) {
    between_polls();
    udp.poll(spins * 10.0, got);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, payload);
  cluster::DigestReader reader(got[0].payload.data(), got[0].payload.size(),
                               kIdSpace);
  std::uint32_t own = 0;
  std::uint32_t count = 0;
  ASSERT_TRUE(reader.header(own, count));
  EXPECT_EQ(own, kMax);
  ASSERT_EQ(count, static_cast<std::uint32_t>(kMaxSoakDigest));
  for (const std::int32_t expected : ids) {
    std::int32_t id = -1;
    std::uint32_t counter = 0;
    ASSERT_TRUE(reader.entry(id, counter));
    EXPECT_EQ(id, expected);
    EXPECT_EQ(counter, kMax);
  }
  EXPECT_TRUE(reader.done());
}

/// UdpTransport's wire frame: magic, from and to as 32-bit words, then
/// the payload, in one datagram of at most kMaxDatagram bytes.
constexpr std::uint32_t kFrameMagic = 0x52464448u;  // "RFDH"
constexpr std::size_t kFrameHeader = 12;
constexpr std::size_t kMaxDatagram = 2'048;

/// One seeded mutation of a wire frame: bit flips, a truncation,
/// appended bytes, a datagram past kMaxDatagram (or exactly at it), or
/// a rewritten magic, from or to word.
void mutate_frame(std::vector<std::uint8_t>& frame, Rng& rng, int nodes) {
  const auto word = [&frame](std::size_t at, std::uint32_t value) {
    std::memcpy(frame.data() + at, &value, sizeof value);
  };
  const auto id = [&rng, nodes]() {
    return static_cast<std::uint32_t>(rng.range(-2, nodes + 1));
  };
  switch (rng.below(7)) {
    case 0:
      for (std::int64_t k = rng.range(1, 4); k > 0; --k) {
        frame[static_cast<std::size_t>(
            rng.below(static_cast<std::int64_t>(frame.size())))] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
    case 1:
      frame.resize(static_cast<std::size_t>(
          rng.below(static_cast<std::int64_t>(frame.size()))));
      break;
    case 2:
      for (std::int64_t k = rng.range(1, 16); k > 0; --k) {
        frame.push_back(static_cast<std::uint8_t>(rng.below(256)));
      }
      break;
    case 3:
      frame.resize(static_cast<std::size_t>(rng.range(
                       static_cast<std::int64_t>(kMaxDatagram), 3'000)),
                   static_cast<std::uint8_t>(rng.below(256)));
      break;
    case 4:
      word(0, rng.chance(0.5) ? static_cast<std::uint32_t>(rng())
                              : kFrameMagic ^ (1u << rng.below(32)));
      break;
    case 5:
      word(4, rng.chance(0.5) ? id() : static_cast<std::uint32_t>(rng()));
      break;
    default:
      word(8, id());
      break;
  }
}

TEST(UdpTransport, FuzzedFramesAreRefusedOrDecoded) {
  // About 2,000 seeded mutants of real frames - the 12-byte header
  // (magic, from, to) plus a DigestEncoder payload - arrive from a
  // plain socket, in batches of at most 32 with a poll after each. A
  // datagram with a valid header that fits 2048 bytes is delivered
  // byte-exact; every other one is refused as a frame error. Each
  // delivered payload is either rejected by DigestReader or decodes to
  // exactly its entry count with no bytes left over.
  constexpr int kNodes = 8;
  constexpr int kMutants = 2'000;
  constexpr int kBatch = 32;
  UdpParams params;
  params.base_port = 41500;  // clear of the other tests and udp-soak
  UdpTransport udp(kNodes, params);
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);

  using Key = std::tuple<NodeId, NodeId, std::vector<std::uint8_t>>;
  std::vector<Key> want;
  std::int64_t want_refused = 0;
  std::vector<Delivery> got;
  Rng rng(0x0dfa11);
  cluster::DigestEncoder encoder(kNodes);
  std::vector<std::int32_t> ids;
  std::int64_t sent = 0;
  for (int m = 0; m < kMutants; ++m) {
    const auto from = static_cast<NodeId>(rng.below(kNodes));
    const auto to = static_cast<NodeId>(rng.below(kNodes));
    ids.clear();
    for (std::int64_t e = rng.below(kNodes); e > 0; --e) {
      ids.push_back(static_cast<std::int32_t>(rng.below(kNodes)));
    }
    std::vector<std::uint8_t> frame(kFrameHeader);
    const std::uint32_t header[3] = {kFrameMagic,
                                     static_cast<std::uint32_t>(from),
                                     static_cast<std::uint32_t>(to)};
    std::memcpy(frame.data(), header, kFrameHeader);
    encoder.encode(
        static_cast<std::uint32_t>(rng()), ids,
        [&rng](std::int32_t) { return static_cast<std::uint32_t>(rng()); },
        frame);
    mutate_frame(frame, rng, kNodes);

    std::uint32_t fields[3] = {0, 0, 0};
    std::memcpy(fields, frame.data(), std::min(frame.size(), kFrameHeader));
    const auto header_from = static_cast<NodeId>(fields[1]);
    const auto header_to = static_cast<NodeId>(fields[2]);
    if (frame.size() >= kFrameHeader && frame.size() <= kMaxDatagram &&
        fields[0] == kFrameMagic && header_from >= 0 && header_from < kNodes &&
        header_to == to) {
      want.emplace_back(header_from, header_to,
                        std::vector<std::uint8_t>(frame.begin() + kFrameHeader,
                                                  frame.end()));
    } else {
      ++want_refused;
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(params.base_port + to));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::sendto(raw, frame.data(), frame.size(), 0,
                       reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
              static_cast<ssize_t>(frame.size()));
    ++sent;
    if (sent % kBatch != 0 && m + 1 < kMutants) continue;
    for (int spins = 0; spins < 200; ++spins) {
      udp.poll(0.0, got);
      const TransportCounters c = udp.counters();
      if (c.delivered + c.sock_errors >= sent) break;
      between_polls();
    }
  }
  ::close(raw);

  const TransportCounters c = udp.counters();
  EXPECT_EQ(c.delivered + c.sock_errors, sent);
  EXPECT_EQ(c.sock_errors, want_refused);
  ASSERT_EQ(c.delivered, static_cast<std::int64_t>(want.size()));
  ASSERT_EQ(got.size(), want.size());

  std::vector<Key> delivered;
  int decoded = 0;
  int rejected = 0;
  for (const Delivery& d : got) {
    EXPECT_GE(d.from, 0);
    EXPECT_LT(d.from, kNodes);
    EXPECT_GE(d.to, 0);
    EXPECT_LT(d.to, kNodes);
    cluster::DigestReader reader(d.payload.data(), d.payload.size(), kNodes);
    std::uint32_t own = 0;
    std::uint32_t count = 0;
    std::uint32_t entries = 0;
    bool ok = reader.header(own, count);
    for (; ok && entries < count; ++entries) {
      std::int32_t peer = -1;
      std::uint32_t counter = 0;
      ok = reader.entry(peer, counter);
      if (ok) {
        EXPECT_GE(peer, 0);
        EXPECT_LT(peer, kNodes);
      }
    }
    if (ok && reader.done()) {
      EXPECT_EQ(entries, count);
      ++decoded;
    } else {
      ++rejected;
    }
    delivered.emplace_back(d.from, d.to, d.payload);
  }
  std::sort(want.begin(), want.end());
  std::sort(delivered.begin(), delivered.end());
  EXPECT_TRUE(delivered == want);
  // Every outcome occurs, so the mutants are neither all refused nor
  // all clean.
  EXPECT_GT(want_refused, 0);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Soak, UdpPortRangePast65535IsRefused) {
  // Node i binds base_port + i: eight nodes from 65530 would need ports
  // up to 65537. The run is refused before a socket is bound, with the
  // range in the error.
  SoakConfig config;
  config.n = 8;
  config.duration_ms = 1'000.0;
  config.backend = SoakBackend::kUdp;
  config.flaky = true;
  config.time_scale = 0.0;
  config.udp.base_port = 65530;
  SoakReport report;
  std::string error;
  EXPECT_FALSE(run_soak(config, report, error));
  EXPECT_NE(error.find("65530-65537"), std::string::npos) << error;
  EXPECT_EQ(report.ticks_run, 0);
  EXPECT_EQ(report.transport.sent, 0);
}

/// A sim wire whose poll at `inject_at` also returns `crafted`.
class CraftedTransport final : public Transport {
 public:
  CraftedTransport(int max_nodes, double inject_at,
                   std::vector<Delivery> crafted)
      : wire_(nullptr, max_nodes, 1, FlakyParams{}),
        inject_at_(inject_at),
        crafted_(std::move(crafted)) {}

  void send(NodeId from, NodeId to, const Payload& payload,
            double now_ms) override {
    wire_.send(from, to, payload, now_ms);
  }
  void poll(double now_ms, std::vector<Delivery>& out) override {
    wire_.poll(now_ms, out);
    if (now_ms == inject_at_) {
      for (Delivery& d : crafted_) out.push_back(std::move(d));
    }
  }
  TransportCounters counters() const override { return wire_.counters(); }

 private:
  FlakyTransport wire_;
  double inject_at_;
  std::vector<Delivery> crafted_;
};

TEST(EngineTransportPath, CraftedPayloadsAreDroppedNeverFatal) {
  // Five deliveries the engine must drop without an hb_recv record - a
  // truncated payload, bytes after the last entry, an id gap past
  // max_nodes, a sender off the id space, an empty payload - and a
  // well-formed control, each at its own arrival time inside the window
  // that ends at 1000 ms.
  constexpr int kNodes = 8;
  std::vector<std::uint8_t> valid;
  cluster::encode_digest(
      5, std::vector<std::int32_t>{2, 3}, [](std::int32_t) { return 4u; },
      valid);
  std::vector<std::uint8_t> trailing = valid;
  trailing.push_back(0);
  const std::vector<std::uint8_t> gap_past = bytes({5, 1, kNodes, 1});
  const struct {
    double at;
    NodeId from;
    std::vector<std::uint8_t> payload;
  } kCrafted[] = {
      {999.125, 1, {valid.begin(), valid.end() - 1}},
      {999.25, 1, trailing},
      {999.375, 1, gap_past},
      {999.5, kNodes, valid},
      {999.625, 1, {}},
      {999.75, 1, valid},  // the control
  };
  std::vector<Delivery> crafted;
  for (const auto& c : kCrafted) {
    Delivery d;
    d.at_ms = c.at;
    d.from = c.from;
    d.to = 0;
    d.payload = c.payload;
    crafted.push_back(std::move(d));
  }
  CraftedTransport wire(kNodes, 1'000.0, std::move(crafted));
  cluster::ClusterConfig config;
  config.n = kNodes;
  config.duration_ms = 3'000.0;
  config.transport = &wire;
  const std::string path =
      ::testing::TempDir() + "rfd_crafted_" + std::to_string(::getpid());
  config.obs.trace_path = path;
  const cluster::ClusterReport report = cluster::run_cluster(config, 7);
  EXPECT_EQ(report.duration_ms, 3'000.0);

  std::set<double> received;  // hb_recv times at node 0
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"type\":\"hb_recv\",\"t\":", 0) != 0 ||
        line.find("\"node\":0,") == std::string::npos) {
      continue;
    }
    received.insert(std::stod(line.substr(line.find(':', 8) + 1)));
  }
  std::remove(path.c_str());
  EXPECT_GT(received.size(), 10u);
  for (const auto& c : kCrafted) {
    EXPECT_EQ(received.count(c.at), c.at == 999.75 ? 1u : 0u) << c.at;
  }
}

TEST(EngineTransportPath, RejectedPayloadKeepsItsPrefix) {
  // A payload from node 1 to node 0 whose first entry names node 9 -
  // inside the id space but never seeded - with counter 5, and whose
  // second gap runs past max_nodes. The reader rejects the payload at
  // that gap, so it writes no hb_recv record, but the entry read before
  // it still applies: node 0 learns node 9, and with no heartbeat from
  // it, suspects it once the bootstrap grace runs out.
  constexpr int kNodes = 8;
  constexpr int kMaxNodes = 10;
  constexpr double kAt = 999.5;
  Delivery d;
  d.at_ms = kAt;
  d.from = 1;
  d.to = 0;
  d.payload = bytes({3, 2, 9, 5, 1, 1});
  std::vector<Delivery> crafted;
  crafted.push_back(std::move(d));
  CraftedTransport wire(kMaxNodes, 1'000.0, std::move(crafted));
  cluster::ClusterConfig config;
  config.n = kNodes;
  config.max_nodes = kMaxNodes;
  config.duration_ms = 4'000.0;
  config.transport = &wire;
  const std::string path =
      ::testing::TempDir() + "rfd_prefix_" + std::to_string(::getpid());
  config.obs.trace_path = path;
  cluster::run_cluster(config, 7);

  bool received = false;
  double suspected_at = -1.0;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto field = [&line](const std::string& key) {
      return std::stod(line.substr(line.find("\"" + key + "\":") +
                                   key.size() + 3));
    };
    if (line.rfind("{\"type\":\"hb_recv\",", 0) == 0 &&
        line.find("\"node\":0,") != std::string::npos && field("t") == kAt) {
      received = true;
    }
    if (line.rfind("{\"type\":\"suspect\",", 0) == 0 &&
        line.find("\"observer\":0,\"victim\":9,") != std::string::npos &&
        suspected_at < 0.0) {
      suspected_at = field("t");
    }
  }
  std::remove(path.c_str());
  EXPECT_FALSE(received);
  EXPECT_GE(suspected_at, kAt + config.bootstrap_grace_ms);
}

TEST(Soak, UdpWithoutInjectionRefusesNetworkFaults) {
  // Bare UDP sockets have no verdict network, so the partition could
  // not be applied: the run is refused before a socket is bound, and
  // the error names the option that adds the injection layer.
  SoakConfig config;
  config.n = 4;
  config.duration_ms = 1'000.0;
  config.backend = SoakBackend::kUdp;
  config.flaky = false;
  config.time_scale = 0.0;
  config.udp.base_port = 41600;  // clear of the UDP tests, udp-soak, fuzzer
  config.scenario.partition(500.0, {{0, 1}, {2, 3}});
  SoakReport report;
  std::string error;
  EXPECT_FALSE(run_soak(config, report, error));
  EXPECT_NE(error.find("--flaky"), std::string::npos) << error;
}

TEST(Soak, RefusesValuesTheEngineOrItsTransportsWouldAbortOn) {
  // Each row used to abort inside the engine's node, the sim network or
  // the injection layer; run_soak now returns false with a reason.
  const std::vector<std::pair<const char*, void (*)(SoakConfig&)>> rows = {
      {"--timeout 0", [](SoakConfig& c) { c.detector.fixed.timeout_ms = 0.0; }},
      {"--timeout nan",
       [](SoakConfig& c) { c.detector.fixed.timeout_ms = std::nan(""); }},
      {"--loss 1", [](SoakConfig& c) { c.network.loss_prob = 1.0; }},
      {"--flaky --flaky-loss 1",
       [](SoakConfig& c) {
         c.flaky = true;
         c.flaky_params.network.loss_prob = 1.0;
       }},
      {"--flaky --flaky-dup 2",
       [](SoakConfig& c) {
         c.flaky = true;
         c.flaky_params.dup_prob = 2.0;
       }},
      {"--flaky --flaky-dup nan",
       [](SoakConfig& c) {
         c.flaky = true;
         c.flaky_params.dup_prob = std::nan("");
       }},
  };
  for (const auto& [name, mutate] : rows) {
    SoakConfig config;
    config.n = 4;
    config.duration_ms = 1'000.0;
    config.detector.kind = rt::DetectorKind::kFixed;
    mutate(config);
    SoakReport report;
    std::string error;
    EXPECT_FALSE(run_soak(config, report, error)) << name;
    EXPECT_FALSE(error.empty()) << name;
    EXPECT_EQ(report.ticks_run, 0) << name;
  }
}

}  // namespace
}  // namespace rfd::transport
