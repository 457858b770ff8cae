#include "cluster/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/digest_codec.hpp"
#include "cluster/fault_state.hpp"
#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "obs/profile.hpp"
#include "obs/record.hpp"
#include "obs/trace_writer.hpp"
#include "runtime/shards.hpp"
#include "transport/transport.hpp"

namespace rfd::cluster {
namespace {

// ---------------------------------------------------------------------------
// Sharded conservative core.
//
// The node id space is partitioned into contiguous blocks, one per shard.
// Each shard owns the heartbeat pumps of its nodes, one Transport, a
// Topology instance, and per-shard replicas of the scenario ground truth.
// Time advances one check window at a time: every shard runs the whole
// loop itself (rt::run_shards starts each shard exactly once per run),
// running its pumps up to the window's check tick, then meeting the
// other shards at the window barrier (a std::barrier) to exchange the
// messages produced in the window, apply them, and evaluate the tick.
// The shards meet again at the fold barrier, whose completion step is
// the serial coordinator: it sums the per-shard inputs (disagreeing
// pairs, pending counts) in shard order and runs agreement,
// convergence, the trace merge, snapshots and the stop flag while every
// shard waits, so the next window starts as the fold barrier releases.
// A grid-misaligned tail window after the last tick meets no one:
// finalize() merges what it staged after the join.
//
// Failure protocol: a shard that throws sets failed_ and leaves, and a
// shard that finds failed_ set after a meeting leaves too. Leaving drops
// the shard from both barriers (arrive_and_drop), so every phase a
// peer waits in still completes; the coordinator skips a fold once
// failed_ is set, and run() rethrows after the join.
//
// Pumps are the only events a shard schedules, and every node has
// exactly one pending pump, so a shard keeps its pumps as a rotation
// rather than an event queue: a ring in (time, arming) order whose head
// is always the next pump to run (run_pumps says why re-arming keeps it
// sorted). Scenario faults are spliced in by time: a fault at t runs
// after the pumps before t and before the pumps at t. The schedule is
// therefore one next-pump time per node - plain data, no closures.
//
// One message path: a pump hands each digest to its shard's Transport as
// a payload the backend encodes on demand; after the window barrier the
// shard polls it at T_k and applies the batch in one stable sorted drain
// (receiver, arrival, sender, seq), then hands it back through recycle();
// deliver() applies each payload in filter, prefetch and observe passes
// over a per-shard scratch buffer (see there). Barrier k thus applies
// the arrivals in (T_{k-1}, T_k], each observed at its true time; a
// delivery outside that (on the summed grid) or off the id space breaks
// the contract and is dropped. A payload the DigestReader rejects writes
// no hb_recv record, but the entries read before the rejection still
// apply. The Transport is the caller's (ClusterConfig::transport, one
// shard: the soak) or the shard's ShardEndpoint of the engine's own
// network (below), which files by b x check: that grid equals the
// summed one at every integral check interval, and elsewhere differs
// only by rounding. Who supplied the transport decides only the
// transport.* snapshot gauges, the config_error refusals (the endpoints
// save no in-flight state) and the off-grid tail window (a caller's runs
// end, and checkpoint, on a tick).
//
// Determinism argument - why every shard count produces bit-identical
// metrics and traces on a fixed seed:
//   1. All randomness is per-node streams: each node's pump draws
//      (phase, topology targets) from its own Rng, and each endpoint's
//      replica of the network draws loss/delay from a per-source stream
//      (a sender only ever sends from its own shard), so the values a
//      node sees depend only on its own history, which is fixed by the
//      protocol below regardless of where the node lives.
//   2. Within a window, nodes interact with nothing but their own state:
//      deliveries are deferred to the barrier, scenario faults are
//      applied at identical times by every shard against its own truth
//      replica (each shard mutating only the nodes it owns), and shared
//      counters are integer sums accumulated per shard.
//   3. Barrier exchange is merge-order deterministic: deliveries apply
//      in (receiver, arrival, sender, send-seq) order - an endpoint
//      stamps each delivery with its sender's send sequence, because
//      bucket order depends on the shard count - and suspicion
//      evaluations drain a per-tick wheel (led at the grace tick by a
//      scan of the seeded rows) whose per-shard content is the shard's
//      subsequence of the shards=1 sequence, so every per-pair outcome
//      matches.
//   4. Trace bytes: records are staged per shard and merged once per
//      window by the fold barrier's completion step, while every shard
//      waits in that barrier, under a total order on (t, type rank, a, b)
//      - any remaining tie is between records of one shard, whose
//      relative order is itself shard-invariant - then formatted by the
//      single TraceWriter in merged order. std::barrier orders the
//      accesses: every arrival happens-before the phase's completion
//      step, and the completion happens-before every return from the
//      phase, so the coordinator sees each shard's staging buffer and
//      counts whole, and no shard writes them again until it has run.
//      Integer counts are summed in shard order; floating-point
//      reductions (detection latency, convergence) happen only on the
//      coordinator in a fixed global order, never as a
//      shard-order-dependent sum.
//
// Relative to the pre-sharding engine the *semantics* changed in exactly
// one way: a message is now observed at the barrier after its arrival
// instead of mid-window, so gossip learned early in a window no longer
// piggybacks on sends later in the same window. Detection/convergence
// quality is the same to within one check interval (the report's
// resolution floor); runs remain a pure function of (config, seed).
// ---------------------------------------------------------------------------

/// Per-shard staging buffer for trace records; the coordinator merges
/// all shards' buffers into the TraceWriter once per round.
struct BufferSink final : obs::RecordSink {
  void emit(const obs::Record& r) override { records.push_back(r); }
  std::vector<obs::Record> records;
};

/// Suspicion-deadline wheel over check ticks: a ring for the near future
/// (detector timeouts span a handful of ticks) with a far-map fallback,
/// replacing the old per-tick unordered_map buckets. push() is an
/// amortized O(1) vector append into the tick's slot. Keys are 32-bit
/// pair keys (observer * max_nodes + peer), which is why the engine
/// refuses max_nodes > kMaxNodes = 65536. The seeded membership's pairs
/// all share one grace tick and hold no key here (see seed()).
class EvalWheel {
 public:
  void push(std::int64_t current_tick, std::int64_t tick,
            std::uint32_t key) {
    // Slot reuse is safe up to a full revolution: tick <= current + kSlots
    // lands in a slot that cannot be drained again before `tick`.
    if (tick - current_tick <= kSlots) {
      ring_[static_cast<std::size_t>(tick & (kSlots - 1))].push_back(key);
    } else {
      far_[tick].push_back(key);
    }
  }

  void drain(std::int64_t tick, std::vector<std::uint32_t>& out) {
    // `out` takes the slot's buffer and its own old one is freed: a
    // drained slot is next pushed to a full revolution later, so it
    // holding a buffer until then only grows the resident set.
    std::vector<std::uint32_t>& slot =
        ring_[static_cast<std::size_t>(tick & (kSlots - 1))];
    out.swap(slot);
    std::vector<std::uint32_t>().swap(slot);
    const auto it = far_.find(tick);
    if (it != far_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
      far_.erase(it);
    }
  }

 private:
  static constexpr std::int64_t kSlots = 512;  // power of two
  std::array<std::vector<std::uint32_t>, kSlots> ring_;
  std::map<std::int64_t, std::vector<std::uint32_t>> far_;
};

/// Ticks run to at most kMaxTicks - 1, so last + 1 fits an int32.
constexpr std::int64_t kMaxTicks = std::numeric_limits<std::int32_t>::max();

/// One shard's endpoint of the engine's own network: its replica of the
/// verdict network, its senders' send sequences, a bucket ring keyed by
/// barrier index (a far map beyond it), a payload pool and one outbox
/// per endpoint. send() draws the verdict before it writes, so a lost
/// datagram costs no encode and no buffer, and leaves a survivor in the
/// outbox for its receiver's endpoint. poll() runs once per window,
/// after the window barrier: it files what every outbox holds for it,
/// then swaps the next bucket into `out`, which arrives empty. Its runs
/// never checkpoint, so it starts at barrier 1.
class ShardEndpoint final : public transport::Transport {
 public:
  using Endpoints = std::vector<std::unique_ptr<ShardEndpoint>>;

  /// `owner` (node -> shard) and `peers` are read after construction.
  ShardEndpoint(int index, int shards, std::uint64_t seed,
                const rt::NetworkParams& params, double check_ms,
                obs::Profiler* profiler, const std::vector<int>& owner,
                const Endpoints& peers)
      : index_(index), check_ms_(check_ms), owner_(owner), peers_(peers),
        network_(seed, params), send_seq_(owner.size(), 0),
        outbox_(static_cast<std::size_t>(shards)), buckets_(kBucketSlots) {
    network_.set_profiler(profiler);
  }

  void send(NodeId from, NodeId to, const transport::Payload& payload,
            double now_ms) override {
    const std::optional<double> delay = network_.route(from, to, now_ms);
    if (!delay) return;
    transport::Delivery d{now_ms + *delay, from, to,
                          send_seq_[static_cast<std::size_t>(from)]++, {}};
    if (!pool_.empty()) {
      d.payload = std::move(pool_.back());
      pool_.pop_back();
    }
    payload.write(d.payload);
    outbox_[static_cast<std::size_t>(owner_[static_cast<std::size_t>(to)])]
        .push_back(std::move(d));
  }

  void poll(double, std::vector<transport::Delivery>& out) override {
    for (const auto& peer : peers_) {
      auto& box = peer->outbox_[static_cast<std::size_t>(index_)];
      for (auto& d : box) file(std::move(d));
      box.clear();
    }
    out.swap(buckets_[static_cast<std::size_t>(next_ & (kBucketSlots - 1))]);
    if (const auto it = far_.find(next_); it != far_.end()) {
      for (auto& d : it->second) out.push_back(std::move(d));
      far_.erase(it);
    }
    in_flight_ -= static_cast<std::int64_t>(out.size());
    ++next_;
  }

  /// Keeps the batch's buffers for the sends to come.
  void recycle(std::vector<transport::Delivery>& batch) override {
    for (transport::Delivery& d : batch) {
      d.payload.clear();
      pool_.push_back(std::move(d.payload));
    }
    batch.clear();
  }

  transport::TransportCounters counters() const override {
    return {.sent = network_.sent(), .dropped = network_.dropped()};
  }
  rt::Network* fault_network() override { return &network_; }
  void set_trace(obs::RecordSink* trace) override { network_.set_trace(trace); }

  /// Datagrams filed here and not yet handed over.
  std::int64_t in_flight() const { return in_flight_; }

 private:
  static constexpr std::int64_t kBucketSlots = 256;  // power of two

  /// Files a datagram for barrier b, the smallest with b x check >= its
  /// arrival. next_ is the barrier the next poll hands over.
  void file(transport::Delivery&& d) {
    std::int64_t b = static_cast<std::int64_t>(d.at_ms / check_ms_);
    while (static_cast<double>(b) * check_ms_ < d.at_ms) ++b;
    RFD_REQUIRE(b >= next_);
    ++in_flight_;
    (b - next_ < kBucketSlots
         ? buckets_[static_cast<std::size_t>(b & (kBucketSlots - 1))]
         : far_[b])
        .push_back(std::move(d));
  }

  int index_;
  double check_ms_;
  const std::vector<int>& owner_;
  const Endpoints& peers_;
  rt::Network network_;
  std::vector<std::uint32_t> send_seq_;
  std::vector<std::vector<transport::Delivery>> outbox_;  // per endpoint
  std::vector<std::vector<transport::Delivery>> buckets_;
  std::map<std::int64_t, std::vector<transport::Delivery>> far_;
  std::vector<std::vector<std::uint8_t>> pool_;
  std::int64_t next_ = 1;
  std::int64_t in_flight_ = 0;
};

/// One node's pending heartbeat pump.
struct Pump {
  double at = 0.0;
  NodeId node = -1;
};

/// Coordinator-side record of one fault a shard found effective; shard 0
/// stages these so the coordinator can do the cluster-global bookkeeping
/// (disruption counting, convergence timing) at the next barrier.
struct FaultNote {
  FaultEffect effect = FaultEffect::kIgnored;
  double at = 0.0;
};

/// One decoded digest entry, as deliver() stages it.
struct DigestEntry {
  NodeId peer = 0;
  std::int32_t counter = 0;
};

struct ShardState {
  explicit ShardState(int max_nodes) : encoder(max_nodes) {}

  int index = 0;
  NodeId lo = 0;  // owned node range [lo, hi)
  NodeId hi = 0;

  // Heartbeat pumps, one per owned node: a full ring that holds them in
  // (time, arming) order starting at pump_head (see run_pumps).
  std::vector<Pump> pumps;
  std::size_t pump_head = 0;
  std::int64_t pumps_run = 0;
  double now = 0.0;  // the shard's simulated clock

  /// The caller's transport, or this shard's ShardEndpoint.
  transport::Transport* transport = nullptr;
  std::unique_ptr<Topology> topology;
  BufferSink sink;
  obs::RecordSink* trace = nullptr;  // &sink when tracing, else null
  std::unique_ptr<obs::Profiler> profiler;

  // Ground-truth replica (every shard applies every fault to its own
  // copy, so window-time reads never cross shards). Its lie state is
  // written only for the nodes this shard owns.
  FaultState truth{0, 0};
  std::int64_t disagreeing = 0;

  std::int64_t check_tick = 0;
  std::size_t fault_cursor = 0;
  EvalWheel wheel;

  std::vector<transport::Delivery> batch;  // empty between windows
  std::int64_t delivered_msgs = 0;

  // Shard-local counter accumulators; summed into the report by the
  // coordinator (integer sums are order-insensitive).
  std::int64_t c_digest_entries = 0;
  std::int64_t c_payload_bytes = 0;
  QosLedger qos;
  /// Crash -> raise latency of each raise against a down victim.
  std::vector<double> raise_samples;

  std::vector<NodeId> targets_scratch;
  std::vector<NodeId> digest_scratch;
  /// One received payload's entries that may change its receiver.
  std::vector<DigestEntry> entry_scratch;
  std::vector<std::uint32_t> wheel_scratch;
  /// Orders and encodes this shard's outgoing digests.
  DigestEncoder encoder;

  // Shard 0 only: effective faults awaiting coordinator bookkeeping.
  std::vector<FaultNote> fault_notes;

  // With exclusion on: the observers that raised a suspicion at this
  // tick, and the (proposer, victim) pairs of those then acting as
  // coordinator (ClusterConfig::exclusion).
  std::vector<NodeId> raisers;
  std::vector<std::pair<NodeId, NodeId>> proposals;
};

/// Total order for the per-window trace merge: records sort by time, then
/// a fixed per-type rank, then the (a, b) ids. Any remaining tie is
/// between records staged by one shard in a shard-invariant relative
/// order, which stable_sort preserves.
int record_rank(obs::RecordType type) {
  switch (type) {
    case obs::RecordType::kFault:
      return 0;
    case obs::RecordType::kLeader:
      return 1;
    case obs::RecordType::kHbSend:
      return 2;
    case obs::RecordType::kDrop:
      return 3;
    case obs::RecordType::kHbRecv:
      return 4;
    case obs::RecordType::kSuspect:
      return 5;
    case obs::RecordType::kClear:
      return 6;
    default:
      return 7;
  }
}

bool record_before(const obs::Record& lhs, const obs::Record& rhs) {
  if (lhs.t != rhs.t) return lhs.t < rhs.t;
  const int lr = record_rank(lhs.type);
  const int rr = record_rank(rhs.type);
  if (lr != rr) return lr < rr;
  if (lhs.a != rhs.a) return lhs.a < rhs.a;
  return lhs.b < rhs.b;
}

class ClusterEngine final : public WindowBoundary {
 public:
  ClusterEngine(const ClusterConfig& config, std::uint64_t seed)
      : config_(config),
        max_nodes_(config.max_nodes > 0 ? config.max_nodes : config.n),
        check_ms_(config.check_interval_ms),
        faults_(config.scenario.sorted()) {
    // Refused before anything n-sized exists.
    const std::string error = config_error(config_);
    RFD_REQUIRE_MSG(error.empty(), error.c_str());
    seed_ = seed;
    shard_count_ = std::min(config_.shards, max_nodes_);

    if (config_.obs.trace_enabled()) {
      trace_ = std::make_unique<obs::TraceWriter>(config_.obs);
      if (!trace_->ok()) trace_.reset();
    }

    // Shards own contiguous node blocks; sizes differ by at most one.
    owner_.assign(static_cast<std::size_t>(max_nodes_), 0);
    shards_.reserve(static_cast<std::size_t>(shard_count_));
    const int base = max_nodes_ / shard_count_;
    const int extra = max_nodes_ % shard_count_;
    NodeId lo = 0;
    for (int s = 0; s < shard_count_; ++s) {
      auto shard = std::make_unique<ShardState>(max_nodes_);
      shard->index = s;
      shard->lo = lo;
      shard->hi = lo + base + (s < extra ? 1 : 0);
      lo = shard->hi;
      if (config_.obs.profile) {
        shard->profiler = std::make_unique<obs::Profiler>();
      }
      shard->transport = config_.transport;
      if (shard->transport == nullptr) {
        endpoints_.push_back(std::make_unique<ShardEndpoint>(
            s, shard_count_, mix_seed(seed, 0xc1e5), config_.network,
            check_ms_, shard->profiler.get(), owner_, endpoints_));
        shard->transport = endpoints_.back().get();
      }
      shard->topology = make_topology(config_.topology, max_nodes_);
      if (trace_ != nullptr) shard->trace = &shard->sink;
      shard->transport->set_trace(shard->trace);
      shard->topology->set_trace(shard->trace);
      shard->qos.set_trace(shard->trace);
      shard->truth = FaultState(max_nodes_, config_.n);
      for (NodeId j = shard->lo; j < shard->hi; ++j) {
        owner_[static_cast<std::size_t>(j)] = s;
      }
      shards_.push_back(std::move(shard));
    }
    RFD_REQUIRE(lo == max_nodes_);

    NodeParams node_params;
    node_params.detector = config_.detector;
    node_params.bootstrap_grace_ms = config_.bootstrap_grace_ms;
    node_params.hot_transmissions = config_.hot_transmissions;
    nodes_.reserve(static_cast<std::size_t>(max_nodes_));
    const Rng base_rng(mix_seed(seed, 0x0dde));
    for (NodeId i = 0; i < max_nodes_; ++i) {
      nodes_.emplace_back(i, max_nodes_, node_params);
      rngs_.push_back(base_rng.split(static_cast<std::uint64_t>(i)));
    }

    for (NodeId i = config_.n; i < max_nodes_; ++i) {
      nodes_[static_cast<std::size_t>(i)].set_active(false);
    }

    excluded_.assign(static_cast<std::size_t>(max_nodes_), 0);
    report_.n = config_.n;
    report_.max_nodes = max_nodes_;
    report_.topology = shards_.front()->topology->name();
    report_.detector = rt::detector_kind_name(config_.detector.kind);
  }

  ClusterReport run() {
    // Fix the round count of the check grid up front, replicating the
    // exact additive accumulation (T += check) the shard loop performs,
    // so the round count and the workers' clocks agree bit-for-bit with
    // the old self-rescheduling check timer. Seeding below arms pairs,
    // so it needs tick_limit_ first.
    rounds_total_ = 0;
    {
      double t = 0.0;
      for (;;) {
        const double next = t + check_ms_;
        if (next > config_.duration_ms) break;
        t = next;
        ++rounds_total_;
        RFD_REQUIRE_MSG(rounds_total_ < kMaxTicks,
                        "run has more check ticks than 32-bit eval ticks "
                        "hold");
      }
    }
    tick_limit_ = rounds_total_ + 1;
    // The boundary before the first window: a checkpoint restored here
    // replaces the fresh state seeded below.
    if (config_.on_window && !config_.on_window(*this)) return report_;
    if (shards_.front()->pumps.empty()) seed();
    if (trace_ != nullptr) {
      trace_->write_line(
          obs::JsonLine{}
              .str("type", "run")
              .integer("v", 1)
              .num("t", start_time_)
              .integer("n", config_.n)
              .integer("max_nodes", max_nodes_)
              .str("topology", report_.topology)
              .str("detector", report_.detector)
              .integer("seed", static_cast<std::int64_t>(seed_))
              .num("duration_ms", config_.duration_ms)
              .num("heartbeat_ms", config_.heartbeat_interval_ms)
              .num("check_ms", config_.check_interval_ms)
              .finish());
    }

    // One start per run: the shards own the whole window loop and meet
    // at two barriers per window. With one shard each barrier has one
    // party, so every meeting completes at once and the coordinator runs
    // inline.
    std::barrier<> window(shard_count_);
    std::barrier fold(shard_count_, FoldStep{this});
    rt::run_shards(shard_count_, [&](int s) {
      shard_loop(*shards_[static_cast<std::size_t>(s)], window, fold);
    });
    if (coordinator_error_ != nullptr) {
      std::rethrow_exception(coordinator_error_);
    }
    finalize();
    return std::move(report_);
  }

  std::int64_t tick() const override { return boundary_tick_; }
  double now_ms() const override { return boundary_time_; }

  void save_state(std::vector<std::uint8_t>& out) const override {
    const ShardState& shard = *shards_.front();
    ByteWriter w(out);
    w.u32(kStateMagic);
    w.i32(config_.n);
    w.i32(max_nodes_);
    w.i64(boundary_tick_);
    std::vector<std::uint8_t> bytes;
    for (const ClusterNode& node : nodes_) {
      bytes.clear();
      node.save_state(bytes);
      w.u32(static_cast<std::uint32_t>(bytes.size()));
      w.bytes(bytes.data(), bytes.size());
    }
    for (const Rng& rng : rngs_) {
      for (std::uint64_t word : rng.save_state()) w.u64(word);
    }
    // The rotation from its head: restored, the ring starts at slot 0.
    for (std::size_t p = 0; p < shard.pumps.size(); ++p) {
      const Pump& pump = shard.pumps[(shard.pump_head + p) %
                                     shard.pumps.size()];
      w.f64(pump.at);
      w.i32(pump.node);
    }
    shard.topology->save_state(w);
    shard.truth.save(w);
    shard.qos.save(w);
    w.u32(static_cast<std::uint32_t>(shard.raise_samples.size()));
    for (double sample : shard.raise_samples) w.f64(sample);
    bytes.clear();
    const bool saved = shard.transport->save_state(bytes);
    w.u8(saved ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(bytes.size()));
    w.bytes(bytes.data(), bytes.size());
  }

  bool restore_state(const std::uint8_t* data, std::size_t size,
                     std::string& error) override {
    // Pumps are armed by seed() or here, so none means a fresh engine.
    ShardState& shard = *shards_.front();
    RFD_REQUIRE_MSG(shard.pumps.empty(),
                    "restore_state is valid only before the first window");
    const auto fail = [&error](const char* why) {
      error = std::string("checkpoint ") + why;
      return false;
    };
    ByteReader r(data, size);
    if (r.u32() != kStateMagic) {
      return fail("payload is not an engine state (an older build's?)");
    }
    if (r.i32() != config_.n || r.i32() != max_nodes_) {
      return fail("node counts do not match this configuration");
    }
    const std::int64_t k = r.i64();
    if (!r.ok() || k < 0 || k > rounds_total_) {
      return fail("tick lies outside this run's horizon");
    }
    std::vector<std::uint8_t> bytes;
    for (ClusterNode& node : nodes_) {
      const std::uint32_t len = r.u32();
      bytes.resize(r.ok() && len <= r.remaining() ? len : 0);
      std::size_t used = 0;
      if (bytes.size() != len || (len != 0 && !r.bytes(bytes.data(), len)) ||
          !node.restore_state(bytes.data(), len, used) || used != len) {
        return fail("node state is inconsistent");
      }
    }
    for (Rng& rng : rngs_) {
      std::array<std::uint64_t, 5> state{};
      for (std::uint64_t& word : state) word = r.u64();
      rng.restore_state(state);
    }
    // The clock the window loop reaches, by the same sums. Every pump
    // due by it has run, and the rotation is sorted.
    double now = 0.0;
    for (std::int64_t t = 0; t < k; ++t) now += check_ms_;
    std::vector<char> seen(static_cast<std::size_t>(max_nodes_), 0);
    double last = now;
    shard.pumps.resize(static_cast<std::size_t>(max_nodes_));
    for (Pump& pump : shard.pumps) {
      pump.at = r.f64();
      pump.node = r.i32();
      if (!r.ok() || !std::isfinite(pump.at) || pump.at <= now ||
          pump.at < last || pump.node < 0 || pump.node >= max_nodes_ ||
          seen[static_cast<std::size_t>(pump.node)]++ != 0) {
        return fail("pump schedule is inconsistent");
      }
      last = pump.at;
    }
    if (!shard.topology->restore_state(r)) {
      return fail("topology state is inconsistent");
    }
    if (!shard.truth.restore(r) || !shard.qos.restore(r)) {
      return fail("ground truth or ledger is inconsistent");
    }
    const std::uint32_t samples = r.u32();
    if (samples > r.remaining() / 8) return fail("raise latencies truncated");
    shard.raise_samples.resize(samples);
    for (double& sample : shard.raise_samples) {
      sample = r.f64();
      if (!(sample >= 0.0 && std::isfinite(sample))) {
        return fail("raise latencies are inconsistent");
      }
    }
    const bool saved = r.u8() != 0;
    const std::uint32_t len = r.u32();
    bytes.resize(r.ok() && len <= r.remaining() ? len : 0);
    std::vector<std::uint8_t> probe;
    if (bytes.size() != len || (len != 0 && !r.bytes(bytes.data(), len)) ||
        !r.ok() || r.remaining() != 0 ||
        saved != shard.transport->save_state(probe) ||
        (saved && !shard.transport->restore_state(bytes.data(), len))) {
      return fail("transport state is inconsistent");
    }

    // Cross-checks - a node runs iff the truth says it is up, and a pair
    // is armed iff it waits for a tick after k - while the suspicion
    // wheel and the disagreement count are rebuilt.
    for (NodeId i = 0; i < max_nodes_; ++i) {
      const ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
      if (node.active() != shard.truth.truly_active(i)) {
        return fail("node liveness disagrees with the ground truth");
      }
      for (NodeId j = 0; j < max_nodes_; ++j) {
        const std::int64_t tick = node.eval_tick(j);
        if (node.armed(j) != (tick >= 0) || (tick >= 0 && tick <= k)) {
          return fail("suspicion schedule is inconsistent");
        }
        if (tick >= 0) shard.wheel.push(k, tick, pair_key(i, j));
      }
      if (node.active()) count_row(shard, i, +1);
    }
    last_agreement_ = shard.disagreeing == 0;
    // The window loop resumes at tick k. The faults due by then have been
    // applied; the network ones are replayed into the fresh fault network.
    start_tick_ = boundary_tick_ = shard.check_tick = k;
    start_time_ = boundary_time_ = shard.now = now;
    for (; shard.fault_cursor < faults_.size() &&
           faults_[shard.fault_cursor].at_ms <= now;
         ++shard.fault_cursor) {
      if (rt::Network* net = shard.transport->fault_network()) {
        apply_network_fault(faults_[shard.fault_cursor], *net);
      }
    }
    return true;
  }

 private:
  /// Leads save_state's bytes ("ENG3"). Restore refuses what older builds
  /// wrote instead of misreading it: "ENG2" states lack the nodes' up
  /// times and the mistake lengths, "ENG1" ones the topology's state and
  /// the transports' counts, and the soak payload of still older builds
  /// began with "SOAK".
  static constexpr std::uint32_t kStateMagic = 0x33474e45u;

  /// The fresh state: the initial membership and the pumps' phases.
  void seed() {
    // The initial membership list is configuration, not discovery. No
    // peer is down yet, and every pair's deadline is the end of the
    // grace window counted from 0, so every pair arms one tick, the
    // grace tick, as arm_pair clamps it. Those n^2 pairs push no wheel
    // keys: evaluate_seeded() scans them at that tick instead.
    const double grace = config_.bootstrap_grace_ms;
    if (std::isfinite(grace)) {
      seed_tick_ = std::clamp(deadline_tick(grace), std::int64_t{1},
                              tick_limit_);
    }
    for (NodeId i = 0; i < config_.n; ++i) {
      ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
      for (NodeId j = 0; j < config_.n; ++j) {
        if (i == j) continue;
        node.learn_peer(j, 0.0);
        if (seed_tick_ >= 0) {
          node.set_eval_tick(j, static_cast<std::int32_t>(seed_tick_));
        }
      }
    }
    for (NodeId i = 0; i < max_nodes_; ++i) {
      // Desynchronized heartbeat phases, as in any real deployment. The
      // phase draws happen here in global id order, so every node's Rng
      // stream starts identically for every shard count.
      const double phase =
          rngs_[static_cast<std::size_t>(i)].uniform01() *
          config_.heartbeat_interval_ms;
      shards_[static_cast<std::size_t>(owner_[static_cast<std::size_t>(i)])]
          ->pumps.push_back({phase, i});
    }
    // The first pumps run in (phase, id) order.
    for (auto& shard : shards_) {
      std::sort(shard->pumps.begin(), shard->pumps.end(),
                [](const Pump& lhs, const Pump& rhs) {
                  if (lhs.at != rhs.at) return lhs.at < rhs.at;
                  return lhs.node < rhs.node;
                });
    }
  }

  /// The fold barrier's completion step: the coordinator, run once per
  /// window by the last shard to arrive while every other shard waits.
  struct FoldStep {
    ClusterEngine* engine;
    void operator()() noexcept { engine->fold_step(); }
  };

  /// Runs one shard's window loop under the failure protocol (see the
  /// design comment at the top of this file).
  void shard_loop(ShardState& shard, std::barrier<>& window,
                  std::barrier<FoldStep>& fold) {
    const auto leave = [&] {
      window.arrive_and_drop();
      fold.arrive_and_drop();
    };
    try {
      if (run_windows(shard, window, fold)) return;
    } catch (...) {
      failed_.store(true, std::memory_order_relaxed);
      leave();
      throw;
    }
    leave();
  }

  /// The window loop every shard runs once per simulation. Each pass
  /// advances one check window, meets the other shards at the window
  /// barrier, delivers and evaluates the tick, and meets them at the
  /// fold barrier, whose completion runs the coordinator step.
  /// rounds_total_ and stopped_early_ are read only after that barrier,
  /// so a stop the coordinator recorded reaches every shard. Returns
  /// false when a meeting found failed_ set.
  bool run_windows(ShardState& shard, std::barrier<>& window,
                   std::barrier<FoldStep>& fold) {
    // Only a meeting with more than one shard is timed as sync.
    obs::Profiler* const sync_prof =
        shard_count_ > 1 ? shard.profiler.get() : nullptr;
    const auto meet = [&](auto& barrier) {
      const obs::ScopedPhase sync(sync_prof, obs::Phase::kSync, true);
      barrier.arrive_and_wait();
      return !failed_.load(std::memory_order_relaxed);
    };

    double T = start_time_;
    std::int64_t k = start_tick_;
    while (k < rounds_total_) {
      ++k;
      const double since = T;
      T += check_ms_;
      run_window(shard, T, k);
      if (!meet(window)) return false;
      deliver_and_evaluate(shard, k, since, T);
      if (!meet(fold)) return false;
    }
    if (!stopped_early_ && config_.transport == nullptr &&
        T < config_.duration_ms) {
      // Grid-misaligned tail: run the remaining pumps (and any faults)
      // up to the duration. No check tick lands here - same as the old
      // engine - and deliveries arriving past the last tick can no
      // longer influence any metric, so they stay buffered. A stopped
      // run skips the tail: simulating up to the full horizon is
      // exactly what the stop flag asked to avoid. So does a caller's
      // transport, whose runs end, and checkpoint, on a tick.
      run_window(shard, config_.duration_ms, k + 1);
    }
    return true;
  }

  /// The coordinator step as a barrier completion, which must not
  /// throw: it is skipped once a shard failed, and an exception it
  /// raises is kept for run() to rethrow after the join.
  void fold_step() noexcept {
    if (failed_.load(std::memory_order_relaxed)) return;
    try {
      coordinator_step();
    } catch (...) {
      coordinator_error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }

  bool owns(const ShardState& shard, NodeId j) const {
    return j >= shard.lo && j < shard.hi;
  }

  /// At most kMaxNodes^2 - 1 = 2^32 - 1.
  std::uint32_t pair_key(NodeId i, NodeId j) const {
    return static_cast<std::uint32_t>(i) *
               static_cast<std::uint32_t>(max_nodes_) +
           static_cast<std::uint32_t>(j);
  }

  /// Arms pair (i, j) for evaluation at check tick `tick`, clamped to the
  /// next tick below and to tick_limit_ above: any tick past the run's
  /// last is stored as last + 1, which no window drains, so a far
  /// deadline (a huge grace, an adaptive detector's fallback) still never
  /// fires and every stored tick fits 32 bits. Earliest arming wins;
  /// superseded wheel entries are skipped via the eval_tick mismatch when
  /// their tick comes up.
  void arm_pair(ShardState& shard, NodeId i, NodeId j, std::int64_t tick) {
    tick = std::clamp(tick, shard.check_tick + 1, tick_limit_);
    ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
    const std::int64_t current = node.eval_tick(j);
    if (current >= 0 && current <= tick) return;
    node.set_eval_tick(j, static_cast<std::int32_t>(tick));
    shard.wheel.push(shard.check_tick, tick, pair_key(i, j));
  }

  /// Check tick at which deadline `at` could first flip a verdict. One
  /// tick early on purpose: arming early costs one extra suspects()
  /// query, arming late would miss the tick the full scan would have
  /// caught. Saturated at tick_limit_ before the cast, which arm_pair
  /// clamps to anyway.
  std::int64_t deadline_tick(double at) const {
    const double tick = std::floor(at / check_ms_) - 1.0;
    return tick < static_cast<double>(tick_limit_)
               ? static_cast<std::int64_t>(tick)
               : tick_limit_;
  }

  void arm_deadline(ShardState& shard, NodeId i, NodeId j) {
    const double deadline =
        nodes_[static_cast<std::size_t>(i)].suspect_deadline(j);
    if (!std::isfinite(deadline)) return;
    arm_pair(shard, i, j, deadline_tick(deadline));
  }

  /// Bookkeeping when observer `i` (owned by `shard`) first learns that
  /// `j` exists: the fresh record is unsuspected, and the pair expires at
  /// the end of the bootstrap grace window unless a counter advance
  /// arrives first.
  void on_learned(ShardState& shard, NodeId i, NodeId j) {
    if (nodes_[static_cast<std::size_t>(i)].active() &&
        shard.truth.truly_down(j)) {
      ++shard.disagreeing;
    }
    arm_deadline(shard, i, j);
  }

  /// Adds (sign=+1) or removes (sign=-1) observer row `i`'s known pairs
  /// from the disagreement count, when the row enters or leaves the set
  /// of live observers. Called only on the shard owning `i`.
  void count_row(ShardState& shard, NodeId i, int sign) {
    const ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
    for (NodeId j = 0; j < max_nodes_; ++j) {
      if (j == i || !node.knows(j)) continue;
      if (node.is_suspected(j) != shard.truth.truly_down(j)) {
        shard.disagreeing += sign;
      }
    }
  }

  /// Re-scores column `j` after truly_down(j) flipped; call with the
  /// truth replicas already updated. Every shard rescoring its own
  /// observer rows covers the column exactly once.
  void rescore_column(ShardState& shard, NodeId j) {
    const bool down = shard.truth.truly_down(j);
    for (NodeId i = shard.lo; i < shard.hi; ++i) {
      const ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
      if (i == j || !node.active() || !node.knows(j)) continue;
      shard.disagreeing += (node.is_suspected(j) != down) ? 1 : 0;
      shard.disagreeing -= (node.is_suspected(j) != !down) ? 1 : 0;
    }
  }

  /// One heartbeat round of node `i` at shard.now. An inactive node
  /// sends nothing; its pump still re-arms, so every node keeps exactly
  /// one pending pump.
  void pump(ShardState& shard, NodeId i) {
    ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
    if (node.active()) {
      node.advance_own_counter();
      // A lie moves by its delta per heartbeat interval while the true
      // counter keeps its honest +1 underneath.
      const std::uint32_t advertised =
          shard.truth.advertise(i, node.own_counter());
      shard.targets_scratch.clear();
      shard.topology->targets(node, rngs_[static_cast<std::size_t>(i)],
                              shard.now, shard.targets_scratch);
      // The digest selection, encoded and counted where a backend writes.
      const transport::PayloadOf payload([&](std::vector<std::uint8_t>& out) {
        const std::size_t before = out.size();
        shard.encoder.encode(
            advertised, shard.digest_scratch,
            [&node](NodeId j) {
              return static_cast<std::uint32_t>(node.counter(j));
            },
            out);
        shard.c_payload_bytes +=
            static_cast<std::int64_t>(out.size() - before);
      });
      for (NodeId target : shard.targets_scratch) {
        shard.digest_scratch.clear();
        {
          obs::ScopedPhase phase(shard.profiler.get(), obs::Phase::kDigest);
          shard.topology->digest(node, target, shard.digest_scratch);
        }
        shard.c_digest_entries +=
            static_cast<std::int64_t>(shard.digest_scratch.size());
        if (shard.trace != nullptr) {
          obs::Record r;
          r.type = obs::RecordType::kHbSend;
          r.t = shard.now;
          r.a = i;
          r.b = target;
          r.c = static_cast<std::int64_t>(shard.digest_scratch.size()) + 1;
          shard.trace->emit(r);
        }
        // The digest above runs whatever the verdict: selection rotates
        // hot-queue state, and a real sender pays that work whether or
        // not the packet survives.
        shard.transport->send(i, target, payload, shard.now);
      }
    }
  }

  /// Runs the shard's pumps due before `t` (with `inclusive`, at or
  /// before it) in (time, arming) order, each timed as a dispatch. A
  /// pump at `at` re-arms at fl(at + heartbeat interval), which keeps
  /// the ring sorted with no heap: the ring is full (one pump per owned
  /// node), so the re-armed pump takes the slot just run and the head
  /// steps past it; pumps run in time order and the rounded sum is
  /// monotone in `at`, so the new time is no earlier than any pending
  /// pump's, and a tie runs after the pumps armed before it - the
  /// (at, seq) order of an event queue.
  void run_pumps(ShardState& shard, double t, bool inclusive) {
    for (;;) {
      Pump& next = shard.pumps[shard.pump_head];
      if (inclusive ? next.at > t : next.at >= t) return;
      shard.now = next.at;
      ++shard.pumps_run;
      {
        const obs::ScopedPhase phase(shard.profiler.get(),
                                     obs::Phase::kDispatch);
        pump(shard, next.node);
      }
      next.at = shard.now + config_.heartbeat_interval_ms;
      if (++shard.pump_head == shard.pumps.size()) shard.pump_head = 0;
    }
  }

  /// Phase A of a round: apply the group's fences, then run the shard's
  /// pumps up to the barrier, with scenario faults spliced in at their
  /// exact times - after the pumps before a fault's time, before the
  /// pumps at it.
  void run_window(ShardState& shard, double t_end, std::int64_t round) {
    shard.check_tick = round - 1;
    // The group's fences come first, at the previous tick's time.
    for (const FaultEvent& fence : fences_) apply_fault(shard, fence);
    while (shard.fault_cursor < faults_.size() &&
           faults_[shard.fault_cursor].at_ms <= t_end) {
      const double at = faults_[shard.fault_cursor].at_ms;
      run_pumps(shard, at, /*inclusive=*/false);
      shard.now = at;
      apply_fault(shard, faults_[shard.fault_cursor]);
      ++shard.fault_cursor;
    }
    run_pumps(shard, t_end, /*inclusive=*/true);
    shard.now = t_end;
  }

  /// Phase B of a round, entered with every shard parked behind the
  /// window barrier: poll this shard's transport at T_k = `now`, drop
  /// what breaks the contract (see the design comment), apply the rest
  /// in deterministic merge order, then evaluate check tick k.
  void deliver_and_evaluate(ShardState& shard, std::int64_t k, double since,
                            double now) {
    std::vector<transport::Delivery>& batch = shard.batch;
    shard.transport->poll(now, batch);
    std::erase_if(batch, [&](const transport::Delivery& d) {
      return d.from < 0 || d.from >= max_nodes_ || d.to < 0 ||
             d.to >= max_nodes_ || !(d.at_ms > since && d.at_ms <= now);
    });
    std::stable_sort(batch.begin(), batch.end(),
                     [](const auto& l, const auto& r) {
                       return std::tie(l.to, l.at_ms, l.from, l.seq) <
                              std::tie(r.to, r.at_ms, r.from, r.seq);
                     });
    shard.check_tick = k - 1;  // deliveries run in tick k-1's context
    for (const transport::Delivery& d : batch) deliver(shard, d);
    shard.delivered_msgs += static_cast<std::int64_t>(batch.size());
    shard.transport->recycle(batch);

    // Evaluate tick k: the seeded pairs at the grace tick, then the
    // suspicion wheel's slot - re-judging every armed pair.
    shard.check_tick = k;
    if (k == seed_tick_) evaluate_seeded(shard, now);
    shard.wheel_scratch.clear();
    shard.wheel.drain(k, shard.wheel_scratch);
    for (const std::uint32_t key : shard.wheel_scratch) {
      evaluate_pair(shard,
                    static_cast<NodeId>(
                        key / static_cast<std::uint32_t>(max_nodes_)),
                    static_cast<NodeId>(
                        key % static_cast<std::uint32_t>(max_nodes_)),
                    now);
    }
    if (config_.exclusion) propose(shard);
  }

  /// The grace tick's share of the seeded membership: this shard's
  /// seeded rows in (i, j) order - the order their wheel keys would have
  /// had at the head of the slot. A pair re-armed since is skipped as
  /// superseded, like a stale key; one re-armed to this very tick holds
  /// a key too, which then finds it already evaluated.
  void evaluate_seeded(ShardState& shard, double now) {
    for (NodeId i = shard.lo; i < std::min(shard.hi, config_.n); ++i) {
      for (NodeId j = 0; j < config_.n; ++j) {
        if (j != i) evaluate_pair(shard, i, j, now);
      }
    }
  }

  void deliver(ShardState& shard, const transport::Delivery& m) {
    ClusterNode& node = nodes_[static_cast<std::size_t>(m.to)];
    if (!node.active()) return;
    const double now = m.at_ms;
    const bool monotone = node.deadline_monotone();
    const NodeId to = m.to;
    std::int64_t advanced = 0;
    std::int64_t entry_count = 0;
    bool ok = true;
    {
      // The payload applies in three passes over the shard's entry
      // scratch, because about half of a digest's entries are stale and
      // the receiver's per-peer arrays are cold at every message:
      //   1. decode, keeping - without a branch - only the entries
      //      node.may_change() passes, so a stale entry costs one
      //      counters_ load and no mispredict;
      //   2. prefetch the slots the kept entries will write;
      //   3. observe the kept entries in payload order, with the wheel
      //      bookkeeping. After the leading sender entry, ids arrive
      //      sorted ascending (the codec's delta stream), so passes 2 and
      //      3 walk the per-peer arrays in ascending order.
      // A payload the reader rejects, or one with bytes after its last
      // entry, writes no hb_recv record, but the entries read before the
      // reader stopped still apply.
      obs::ScopedPhase phase(shard.profiler.get(), obs::Phase::kObserve);
      DigestReader reader(m.payload.data(), m.payload.size(), max_nodes_);
      std::uint32_t own = 0;
      std::uint32_t count = 0;
      ok = reader.header(own, count);
      entry_count = static_cast<std::int64_t>(count) + 1;
      std::vector<DigestEntry>& entries = shard.entry_scratch;
      std::size_t kept = 0;
      if (ok) {
        // header() bounds count by the payload's size.
        if (entries.size() <= count) entries.resize(count + std::size_t{1});
        DigestEntry entry{m.from, static_cast<std::int32_t>(own)};
        for (std::uint32_t e = 0;; ++e) {
          entries[kept] = entry;
          kept += node.may_change(entry.peer, entry.counter) ? 1 : 0;
          if (e == count) break;
          std::uint32_t counter = 0;
          if (!reader.entry(entry.peer, counter)) {
            ok = false;
            break;
          }
          entry.counter = static_cast<std::int32_t>(counter);
        }
        ok = ok && reader.done();
      }
      for (std::size_t e = 0; e < kept; ++e) node.prefetch(entries[e].peer);
      for (std::size_t e = 0; e < kept; ++e) {
        const NodeId peer = entries[e].peer;
        const ObserveResult result =
            node.observe(peer, entries[e].counter, now);
        if (result.newly_known) on_learned(shard, to, peer);
        if (result.advanced) {
          ++advanced;
          // The advance is this pair's heartbeat: its deadline moved. A
          // suspected pair must be re-judged at the very next tick (the
          // advance is its refutation); an unsuspected pair gets its
          // deadline re-registered - unless the detector's deadline is
          // monotone and the pair is already armed, where re-arming is
          // provably a no-op (arm_pair keeps the earliest tick and the
          // new deadline can only be later), so the re-query is skipped.
          // A freshly started detector always re-arms: its deadline
          // family changed from the grace window, which monotonicity
          // says nothing about.
          if (node.is_suspected(peer)) {
            arm_pair(shard, to, peer, shard.check_tick + 1);
          } else if (!monotone || result.started_detector ||
                     !node.armed(peer)) {
            arm_deadline(shard, to, peer);
          }
        }
      }
    }
    if (ok && shard.trace != nullptr) {
      obs::Record r;
      r.type = obs::RecordType::kHbRecv;
      r.t = now;
      r.a = to;
      r.b = m.from;
      r.c = entry_count;
      r.x = static_cast<double>(advanced);
      shard.trace->emit(r);
    }
  }

  void evaluate_pair(ShardState& shard, NodeId i, NodeId j, double now) {
    ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
    if (node.eval_tick(j) != shard.check_tick) return;  // superseded
    node.set_eval_tick(j, -1);
    // A crashed observer's cached state is frozen until it resets; a
    // wiped record re-arms when the peer is re-learned.
    if (!node.active() || !node.knows(j)) return;
    const bool down = shard.truth.truly_down(j);
    const bool was_suspected = node.is_suspected(j);
    const bool suspected = node.suspects(j, now);
    if (suspected != was_suspected) {
      shard.disagreeing += (suspected != down) ? 1 : 0;
      shard.disagreeing -= (was_suspected != down) ? 1 : 0;
      if (!suspected && !down) {
        shard.qos.end_mistake(shard.truth, j, node.suspect_since(j), now);
      }
      node.set_suspected(j, suspected, suspected ? now : -1.0);
      if (shard.qos.flip(i, j, suspected, down, now)) {
        shard.raise_samples.push_back(now - shard.truth.down_since(j));
      }
      if (suspected && config_.exclusion) shard.raisers.push_back(i);
    }
    // Unsuspected pairs always hold a future deadline; suspected pairs
    // sleep until a counter advance refutes them.
    if (!suspected) arm_deadline(shard, i, j);
  }

  /// Applies the shard-local effects of one fault: the truth replica,
  /// this shard's transport's fault network, owned node state and owned
  /// observer rows. Only shard 0 stages the coordinator bookkeeping and
  /// the trace record, so each effective fault is recorded exactly once;
  /// every shard decides effectiveness identically from its replica, so
  /// the trace's fault stream is exactly the ground-truth transition
  /// sequence - the invariant the offline replay relies on.
  void apply_fault(ShardState& shard, const FaultEvent& event) {
    const double now = shard.now;
    const NodeId j = event.node;
    const bool owned = j >= 0 && owns(shard, j);
    ClusterNode* node = owned ? &nodes_[static_cast<std::size_t>(j)] : nullptr;
    const FaultEffect effect = shard.truth.apply(event, now, node);
    // An exclusion is traced even when its victim was already down.
    if (shard.index == 0 && shard.trace != nullptr &&
        (effect != FaultEffect::kIgnored ||
         event.kind == FaultKind::kExclude)) {
      shard.trace->emit(fault_record(event, now));
    }
    if (effect == FaultEffect::kIgnored) return;
    if (shard.index == 0) shard.fault_notes.push_back({effect, now});
    // Bare sockets have no fault network.
    if (rt::Network* net = shard.transport->fault_network()) {
      apply_network_fault(event, *net);
    }
    if (effect == FaultEffect::kDown) {
      end_mistakes(shard, j, now);
      if (owned) count_row(shard, j, -1);  // the dead row leaves the set
      rescore_column(shard, j);
    } else if (effect == FaultEffect::kUp || effect == FaultEffect::kJoined) {
      // A join does not change the true crashed set; a recover does.
      if (effect == FaultEffect::kUp) rescore_column(shard, j);
      if (owned) {
        // The restarted row knows only its seeded contacts: arm each
        // pair's grace deadline, then count the row back in.
        for (NodeId peer = 0; peer < max_nodes_; ++peer) {
          if (peer != j && node->knows(peer)) arm_deadline(shard, j, peer);
        }
        count_row(shard, j, +1);
      }
    }
  }

  /// Books the mistakes `j` going down at `now` ends: this shard's live
  /// observers' suspicions of `j`, and, if the shard owns `j`, its
  /// suspicions of live peers. Call with the truth replica updated.
  void end_mistakes(ShardState& shard, NodeId j, double now) {
    const auto end = [&](NodeId i, NodeId peer) {
      const ClusterNode& observer = nodes_[static_cast<std::size_t>(i)];
      if (!observer.is_suspected(peer)) return;
      shard.qos.end_mistake(shard.truth, peer, observer.suspect_since(peer),
                            now);
    };
    for (NodeId i = shard.lo; i < shard.hi; ++i) {
      if (i != j && nodes_[static_cast<std::size_t>(i)].active()) end(i, j);
    }
    for (NodeId peer = 0; owns(shard, j) && peer < max_nodes_; ++peer) {
      if (peer != j && shard.truth.truly_active(peer)) end(j, peer);
    }
  }

  /// Whether `j` is a member of the group: active once and not excluded.
  bool member(const ShardState& shard, NodeId j) const {
    return shard.truth.ever_active(j) &&
           excluded_[static_cast<std::size_t>(j)] == 0;
  }

  /// After tick k's evaluation: every observer of this shard that raised
  /// a suspicion at it - each one, if the group lost a member at the
  /// last coordinator step - and is now the acting coordinator proposes
  /// the members it suspects.
  void propose(ShardState& shard) {
    std::vector<NodeId>& who = shard.raisers;
    if (group_changed_) {
      for (NodeId i = shard.lo; i < shard.hi; ++i) who.push_back(i);
    }
    std::sort(who.begin(), who.end());
    who.erase(std::unique(who.begin(), who.end()), who.end());
    for (const NodeId i : who) {
      const ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
      if (!node.active() || !member(shard, i)) continue;
      NodeId m = 0;
      while (m < i && (!member(shard, m) || node.is_suspected(m))) ++m;
      if (m < i) continue;  // a lower member it trusts is acting
      for (NodeId j = 0; j < max_nodes_; ++j) {
        if (j != i && member(shard, j) && node.is_suspected(j)) {
          shard.proposals.emplace_back(i, j);
        }
      }
    }
    who.clear();
  }

  /// The coordinator's half of the group: excludes the victims of tick
  /// k's proposals in proposer order, to be fenced at the start of the
  /// next window at the tick's time `now`. A proposal whose proposer this
  /// step excluded is dropped, and so is every one of the run's last
  /// window.
  void take_proposals(std::int64_t k, double now) {
    fences_.clear();
    std::vector<std::pair<NodeId, NodeId>> proposals;
    for (const auto& shard : shards_) {
      proposals.insert(proposals.end(), shard->proposals.begin(),
                       shard->proposals.end());
      shard->proposals.clear();
    }
    std::sort(proposals.begin(), proposals.end());
    const FaultState& truth = shards_.front()->truth;
    for (const auto& [proposer, v] : proposals) {
      char& excluded = excluded_[static_cast<std::size_t>(v)];
      if (k >= rounds_total_ || excluded != 0 ||
          excluded_[static_cast<std::size_t>(proposer)] != 0) {
        continue;
      }
      excluded = 1;
      if (truth.truly_active(v)) {
        ++report_.false_exclusions;
      } else {
        report_.exclusion_latency_ms.add(now - truth.down_since(v));
      }
      FaultEvent& fence = fences_.emplace_back();
      fence.at_ms = now;
      fence.kind = FaultKind::kExclude;
      fence.node = v;
    }
    group_changed_ = !fences_.empty();
  }

  /// Coordinator bookkeeping for one fault shard 0 found effective:
  /// ground-truth versioning and disruption counting. Applied in staged
  /// (chronological) order, before the agreement check of the tick whose
  /// window produced it - the old in-window ordering.
  void apply_fault_note(const FaultNote& note) {
    if (note.effect == FaultEffect::kDown || note.effect == FaultEffect::kUp) {
      bump_truth(note.at);
    } else if (note.effect == FaultEffect::kRelief && !last_agreement_) {
      // Re-convergence is only measurable if the episode actually drove
      // the cluster into disagreement.
      bump_truth(note.at);
    }
  }

  void bump_truth(double now) {
    // A batch of same-instant faults (e.g. a rack failing) is one
    // disruption to converge from, not many.
    if (truth_version_ > 0 && truth_change_time_ == now) return;
    ++truth_version_;
    truth_change_time_ = now;
    ++report_.disruptions;
  }

  /// The serial coordinator step (the fold barrier's completion, every
  /// shard waiting) for the window just evaluated: scenario bookkeeping,
  /// cluster agreement, convergence and the pending peak from the
  /// shards' counts summed in shard order, then the window's trace
  /// merge, a snapshot if due, and the stop flag.
  void coordinator_step() {
    ShardState& shard0 = *shards_.front();
    // Every shard's clock stands at the window's check tick k and time.
    const std::int64_t k = shard0.check_tick;
    const double now = shard0.now;
    for (const FaultNote& note : shard0.fault_notes) apply_fault_note(note);
    shard0.fault_notes.clear();
    std::int64_t disagreeing = 0;
    for (const auto& shard : shards_) disagreeing += shard->disagreeing;
    const bool all_agree = disagreeing == 0;
    if (all_agree && agreed_version_ < truth_version_) {
      report_.convergence_ms.add(now - truth_change_time_);
      agreed_version_ = truth_version_;
    }
    last_agreement_ = all_agree;
    peak_logical_queue_ = std::max(peak_logical_queue_, logical_pending());
    merge_trace();
    // Snapshots piggyback on the exchange instead of scheduling their own
    // events, so enabling them cannot perturb the simulation.
    if (trace_ != nullptr && config_.obs.snapshot_every_ticks > 0 &&
        k % config_.obs.snapshot_every_ticks == 0) {
      snapshot(k, now, disagreeing);
    }
    if (config_.stop != nullptr && k < rounds_total_ &&
        config_.stop->load(std::memory_order_relaxed)) {
      // Graceful stop. finalize() still executes: counters merge, the
      // trace drains and the footer is written.
      end_run(k);
    }
    boundary_tick_ = k;
    boundary_time_ = now;
    if (config_.on_window && !config_.on_window(*this) && k < rounds_total_) {
      end_run(k);
    }
    if (config_.exclusion) take_proposals(k, now);
  }

  /// Ends the window loop at tick k on every shard (the fold barrier
  /// publishes the new round count); the report's rates are normalized
  /// over the time actually simulated, shard 0's final clock.
  void end_run(std::int64_t k) {
    rounds_total_ = k;
    stopped_early_ = true;
  }

  /// Logical pending-event count at an exchange barrier: one pump per
  /// node plus buffered messages and unapplied faults - the same
  /// population the old single queue held at snapshot time (the check
  /// chain itself is mid-execution there and uncounted).
  /// Shard-count-invariant by construction (each term is).
  std::int64_t logical_pending() const {
    std::int64_t pending = 0;
    for (const auto& shard : shards_) {
      pending += static_cast<std::int64_t>(shard->pumps.size());
    }
    // A caller's transport has applied all it handed over by now.
    for (const auto& endpoint : endpoints_) pending += endpoint->in_flight();
    pending += static_cast<std::int64_t>(faults_.size() -
                                         shards_.front()->fault_cursor);
    return pending;
  }

  /// Logical executed-event count: pumps run, applied messages, applied
  /// faults, and check rounds - the same population the old single-queue
  /// engine counted.
  std::int64_t logical_executed(std::int64_t rounds) const {
    std::int64_t executed = rounds;
    for (const auto& shard : shards_) {
      executed += shard->pumps_run;
      executed += shard->delivered_msgs;
    }
    executed += static_cast<std::int64_t>(shards_.front()->fault_cursor);
    return executed;
  }

  /// Sets the report's shard-kept counts to their sums in fixed shard
  /// order.
  void sum_shard_counts() {
    report_.digest_entries_sent = 0;
    report_.digest_payload_bytes = 0;
    report_.suspicion_raises = 0;
    report_.suspicion_clears = 0;
    report_.false_suspicions = 0;
    for (const auto& shard : shards_) {
      report_.digest_entries_sent += shard->c_digest_entries;
      report_.digest_payload_bytes += shard->c_payload_bytes;
      report_.suspicion_raises += shard->qos.raises();
      report_.suspicion_clears += shard->qos.clears();
      report_.false_suspicions += shard->qos.false_suspicions();
    }
  }

  /// Messages sent, dropped and partition-dropped, over the shards'
  /// transports.
  std::array<std::int64_t, 3> net_totals() const {
    std::array<std::int64_t, 3> totals{};
    for (const auto& shard : shards_) {
      const transport::TransportCounters c = shard->transport->counters();
      totals[0] += c.sent;
      totals[1] += c.dropped;
      if (const rt::Network* net = shard->transport->fault_network()) {
        totals[2] += net->partition_dropped();
      }
    }
    return totals;
  }

  /// Writes one `snap` record: the report so far, then gauges of the
  /// fabric at tick k (the transport.* ones only for a caller's
  /// transport). Counts are integers, gauges %.10g numbers.
  void snapshot(std::int64_t k, double now, std::int64_t disagreeing) {
    sum_shard_counts();
    const auto histogram = [](const Summary& s) {
      const bool any = s.count() > 0;
      return obs::JsonLine{}
          .integer("count", s.count())
          .num("mean", any ? s.mean() : 0.0)
          .num("p50", any ? s.percentile(0.5) : 0.0)
          .num("p99", any ? s.percentile(0.99) : 0.0)
          .num("max", any ? s.max() : 0.0)
          .finish();
    };
    const auto [sent, dropped, partition_dropped] = net_totals();
    std::size_t max_hot = 0;
    for (const ClusterNode& node : nodes_) {
      if (node.active()) max_hot = std::max(max_hot, node.hot_queue_depth());
    }
    obs::JsonLine m;
    m.integer("cluster.digest_entries_sent", report_.digest_entries_sent)
        .integer("cluster.digest_payload_bytes", report_.digest_payload_bytes)
        .integer("cluster.suspicion_raises", report_.suspicion_raises)
        .integer("cluster.suspicion_clears", report_.suspicion_clears)
        .integer("cluster.false_suspicions", report_.false_suspicions)
        .integer("cluster.disruptions", report_.disruptions)
        .integer("cluster.missed_detections", report_.missed_detections)
        .raw("cluster.detection_ms", histogram(report_.detection_latency_ms))
        .raw("cluster.convergence_ms", histogram(report_.convergence_ms))
        .num("cluster.disagreeing_pairs", static_cast<double>(disagreeing))
        .num("net.sent", static_cast<double>(sent))
        .num("net.dropped", static_cast<double>(dropped))
        .num("net.partition_dropped", static_cast<double>(partition_dropped))
        .num("queue.size", static_cast<double>(logical_pending()))
        .num("queue.executed", static_cast<double>(logical_executed(k)))
        .num("node.max_hot_queue", static_cast<double>(max_hot));
    if (config_.transport != nullptr) {
      const transport::TransportCounters c = config_.transport->counters();
      for (const auto& [name, value] : {std::pair{"transport.sent", c.sent},
               {"transport.delivered", c.delivered},
               {"transport.dropped", c.dropped},
               {"transport.duplicated", c.duplicated},
               {"transport.queue_drops", c.queue_drops},
               {"transport.retries", c.retries},
               {"transport.sock_errors", c.sock_errors}}) {
        m.num(name, static_cast<double>(value));
      }
    }
    trace_->write_line(obs::JsonLine{}
                           .str("type", "snap")
                           .num("t", now)
                           .integer("tick", k)
                           .raw("m", m.finish())
                           .finish());
  }

  /// Merges every shard's staging buffer into the writer under the
  /// deterministic total order. Runs while no shard runs: in each
  /// coordinator step, and once more in finalize() for the tail window.
  void merge_trace() {
    if (trace_ == nullptr) return;
    merge_scratch_.clear();
    for (const auto& shard : shards_) {
      merge_scratch_.insert(merge_scratch_.end(),
                            shard->sink.records.begin(),
                            shard->sink.records.end());
      shard->sink.records.clear();
    }
    std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                     record_before);
    for (const obs::Record& r : merge_scratch_) trace_->emit(r);
  }

  void finalize() {
    // A grid-misaligned tail window staged its records after the last
    // coordinator step, and no tick follows its faults, so both land
    // here, after the join.
    merge_trace();
    for (const FaultNote& note : shards_.front()->fault_notes) {
      apply_fault_note(note);
    }
    shards_.front()->fault_notes.clear();
    // A victim an observer never met is not a miss here.
    const StandingTally tally = standing_suspicions(
        shards_.front()->truth,
        [this](NodeId i, NodeId j) {
          return standing_of(nodes_[static_cast<std::size_t>(i)], j);
        },
        [this](double ms) { report_.detection_latency_ms.add(ms); });
    report_.missed_detections = tally.missed;
    report_.unmet_victims = tally.unmet;
    sum_shard_counts();
    std::int64_t mistake_us = 0;
    for (const auto& shard : shards_) {
      report_.raise_latency_ms.insert(report_.raise_latency_ms.end(),
                                      shard->raise_samples.begin(),
                                      shard->raise_samples.end());
      report_.mistakes += shard->qos.mistakes();
      mistake_us += shard->qos.mistake_us();
    }
    report_.mistake_ms = static_cast<double>(mistake_us) / 1000.0;
    // Ascending, so the list is independent of the order raises were
    // evaluated in within a tick - which a restored wheel does not keep.
    std::sort(report_.raise_latency_ms.begin(),
              report_.raise_latency_ms.end());
    for (NodeId j = 0; j < max_nodes_; ++j) {
      if (excluded_[static_cast<std::size_t>(j)] == 0) continue;
      report_.excluded.push_back(j);
      // The group's fence held: its process and every replica say down.
      bool down = !nodes_[static_cast<std::size_t>(j)].active();
      for (const auto& shard : shards_) down &= shard->truth.truly_down(j);
      report_.excluded_down = report_.excluded_down && down;
    }
    report_.duration_ms = shards_.front()->now;
    report_.events_executed = logical_executed(rounds_total_);
    report_.peak_event_queue = peak_logical_queue_;
    const auto [sent, dropped, partition_dropped] = net_totals();
    report_.messages_sent = sent;
    report_.messages_dropped = dropped;
    report_.partition_dropped = partition_dropped;
    report_.unconverged_disruptions =
        report_.disruptions - report_.convergence_ms.count();
    report_.final_agreement = last_agreement_;
    finalize_rates(report_);
    report_.profile = merged_profile();
    if (trace_ != nullptr) {
      for (const obs::PhaseStat& stat : report_.profile) {
        trace_->write_line(obs::JsonLine{}
                               .str("type", "profile")
                               .str("phase", stat.phase)
                               .integer("calls", stat.calls)
                               .integer("sampled", stat.sampled)
                               .num("est_ms", stat.est_ms)
                               .finish());
      }
      trace_->write_line(
          obs::JsonLine{}
              .str("type", "end")
              .num("t", report_.duration_ms)
              .integer("events_executed", report_.events_executed)
              .integer("messages_sent", report_.messages_sent)
              .integer("detections", report_.detection_latency_ms.count())
              .integer("false_suspicions", report_.false_suspicions)
              .boolean("final_agreement", report_.final_agreement)
              .finish());
      trace_->close();
      report_.trace_records = trace_->written_records();
      report_.trace_dropped = trace_->dropped();
    }
  }

  /// Sums the per-shard phase-timer rollups (counts are exact sums;
  /// durations are sums of the per-shard scaled estimates).
  std::vector<obs::PhaseStat> merged_profile() const {
    std::vector<obs::PhaseStat> merged;
    for (const auto& shard : shards_) {
      if (shard->profiler == nullptr) continue;
      for (const obs::PhaseStat& stat : shard->profiler->stats()) {
        obs::PhaseStat* slot = nullptr;
        for (obs::PhaseStat& existing : merged) {
          if (existing.phase == stat.phase) {
            slot = &existing;
            break;
          }
        }
        if (slot == nullptr) {
          merged.push_back(stat);
        } else {
          slot->calls += stat.calls;
          slot->sampled += stat.sampled;
          slot->est_ms += stat.est_ms;
        }
      }
    }
    return merged;
  }

  ClusterConfig config_;
  int max_nodes_;
  double check_ms_;
  int shard_count_ = 1;
  std::vector<FaultEvent> faults_;
  std::vector<int> owner_;
  /// The engine's own network, one endpoint per shard; empty when the
  /// configuration brings a transport.
  ShardEndpoint::Endpoints endpoints_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<ClusterNode> nodes_;
  std::vector<Rng> rngs_;

  // Coordinator-side scenario bookkeeping (the shard replicas carry the
  // ground truth; these drive the report's convergence aggregation).
  std::int64_t truth_version_ = 0;
  std::int64_t agreed_version_ = 0;
  double truth_change_time_ = 0.0;
  bool last_agreement_ = true;
  std::int64_t peak_logical_queue_ = 0;

  // The group (ClusterConfig::exclusion), ordered by the fold barrier
  // like the loop state below: every id it excluded, the fences the next
  // window applies first, and whether the last step excluded anyone.
  std::vector<char> excluded_;
  std::vector<FaultEvent> fences_;
  bool group_changed_ = false;

  // Loop state, plain because the fold barrier orders it: the
  // coordinator writes it in the barrier's completion step, and the
  // shards read it only after the barrier releases them. After the run,
  // rounds_total_ is the number of check windows run.
  std::int64_t rounds_total_ = 0;
  /// The run's last check tick + 1, where arm_pair parks far deadlines;
  /// fixed before seeding and never lowered by a stop.
  std::int64_t tick_limit_ = 0;
  /// The tick the seeded pairs are armed for (-1: none, as after a
  /// restore, whose wheel holds a key for every armed pair).
  std::int64_t seed_tick_ = -1;
  /// Set by the coordinator when config_.stop ended the run early; the
  /// tail window reads it.
  bool stopped_early_ = false;
  /// Set by a shard that threw or a coordinator step that threw; every
  /// shard reads it after each meeting (the failure protocol).
  std::atomic<bool> failed_{false};
  /// A coordinator step's exception, rethrown by run() after the join.
  std::exception_ptr coordinator_error_;

  // Window boundaries: where the loop starts (0, or a restored tick) and
  // the boundary on_window sees.
  std::int64_t start_tick_ = 0;
  double start_time_ = 0.0;
  std::int64_t boundary_tick_ = 0;
  double boundary_time_ = 0.0;

  // Observability: the trace exists only when configured.
  std::uint64_t seed_ = 0;
  std::unique_ptr<obs::TraceWriter> trace_;
  std::vector<obs::Record> merge_scratch_;

  /// The run's only metric store: the coordinator adds to it as the run
  /// goes, and each snapshot writes it out so far.
  ClusterReport report_;
};

}  // namespace

std::string network_error(const rt::NetworkParams& params) {
  if (!(params.loss_prob >= 0.0 && params.loss_prob < 1.0)) {
    return "network loss probability must lie in [0, 1)";
  }
  if (!(params.pre_gst_chaos_prob >= 0.0 && params.pre_gst_chaos_prob <= 1.0)) {
    return "network pre-GST chaos probability must lie in [0, 1]";
  }
  if (!(params.min_delay_ms >= 0.0) || !std::isfinite(params.min_delay_ms) ||
      !(params.pre_gst_extra_ms >= 0.0) ||
      !std::isfinite(params.pre_gst_extra_ms) ||
      !std::isfinite(params.jitter_mu) || !(params.jitter_sigma >= 0.0) ||
      !std::isfinite(params.jitter_sigma) || !(params.gst_ms >= 0.0)) {
    return "network delays must be finite and non-negative";
  }
  return {};
}

std::string config_error(const ClusterConfig& config) {
  const int max_nodes = config.max_nodes > 0 ? config.max_nodes : config.n;
  if (config.n < 2) return "n must be at least 2";
  if (max_nodes < config.n) return "max_nodes must be at least n";
  if (max_nodes > kMaxNodes) {
    return "max_nodes exceeds 65536, the bound of the 32-bit "
           "suspicion-wheel keys";
  }
  // An unmatched storm_off or link_up would silently corrupt the
  // per-shard network replicas mid-run (the builders sort, this rejects).
  std::string scenario_error = config.scenario.validate();
  if (!scenario_error.empty()) return scenario_error;
  if (!(config.heartbeat_interval_ms > 0.0) ||
      !std::isfinite(config.heartbeat_interval_ms) ||
      !(config.check_interval_ms > 0.0)) {
    return "heartbeat and check intervals must be positive numbers";
  }
  // Eval ticks are stored as 32 bits, up to the last tick + 1 (see
  // arm_pair); the exact count comes from run()'s round-count loop.
  if (!(config.duration_ms / config.check_interval_ms <
        static_cast<double>(kMaxTicks))) {
    return "run has more check ticks than 32-bit eval ticks hold "
           "(duration_ms / check_interval_ms must stay below 2^31 - 1)";
  }
  if (config.shards < 1) return "shards must be at least 1";
  if (!(config.bootstrap_grace_ms > 0.0)) {
    return "bootstrap_grace_ms must be positive";
  }
  if (config.hot_transmissions < 1 || config.hot_transmissions > 127) {
    return "hot_transmissions must lie in [1, 127]";
  }
  if ((config.topology.kind == TopologyKind::kRing &&
       config.topology.ring_successors < 1) ||
      (config.topology.kind == TopologyKind::kGossip &&
       config.topology.gossip_fanout < 1)) {
    return "the topology's fan-out must be at least 1";
  }
  const rt::DetectorParams& d = config.detector;
  if (d.kind == rt::DetectorKind::kFixed ? !(d.fixed.timeout_ms > 0.0)
      : d.kind == rt::DetectorKind::kChen
          ? d.chen.window < 2 || !(d.chen.alpha_ms > 0.0)
          : d.phi.window < 2 || !(d.phi.threshold > 0.0)) {
    return "the detector's timeout, alpha or threshold must be positive, "
           "and its window at least 2";
  }
  const std::string error = network_error(config.network);
  if (!error.empty()) return error;
  // The engine's own endpoints save no in-flight state, and a caller's
  // transport is one endpoint.
  if (config.transport != nullptr && config.shards != 1) {
    return "a caller's transport runs on one shard";
  }
  if (config.transport == nullptr && config.on_window) {
    return "on_window needs a caller's transport";
  }
  if (config.transport != nullptr && config.exclusion) {
    return "exclusion runs on the engine's own network";
  }
  // A recover would restart a fenced node outside the group.
  for (const FaultEvent& e : config.scenario.events) {
    if (config.exclusion && e.kind == FaultKind::kRecover) {
      return "exclusion runs on scenarios without recover events";
    }
  }
  return {};
}

ClusterReport run_cluster(const ClusterConfig& config, std::uint64_t seed) {
  ClusterEngine engine(config, seed);
  return engine.run();
}

}  // namespace rfd::cluster
