#include "transport/soak.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/digest_codec.hpp"
#include "cluster/fault_state.hpp"
#include "cluster/node.hpp"
#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/shutdown.hpp"
#include "obs/registry.hpp"
#include "obs/trace_writer.hpp"
#include "transport/checkpoint.hpp"
#include "transport/loopback.hpp"

namespace rfd::transport {

namespace {

constexpr std::uint32_t kPayloadMagic = 0x4b414f53u;  // "SOAK"

std::uint64_t fnv1a_init() { return 0xcbf29ce484222325ull; }

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t h) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

double wall_elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

class SoakRunner {
 public:
  explicit SoakRunner(const SoakConfig& config)
      : config_(config),
        max_nodes_(effective_max_nodes(config)),
        fingerprint_(soak_config_fingerprint(config)),
        faults_(config.scenario.sorted()),
        truth_(max_nodes_, config.n),
        encoder_(max_nodes_) {
    build_transport();
    cluster::NodeParams node_params;
    node_params.detector = config_.detector;
    node_params.bootstrap_grace_ms = config_.bootstrap_grace_ms;
    node_params.hot_transmissions = config_.hot_transmissions;
    nodes_.reserve(static_cast<std::size_t>(max_nodes_));
    Rng base(mix_seed(config_.seed, 0x50a4d00ull));
    for (rt::NodeId i = 0; i < max_nodes_; ++i) {
      nodes_.emplace_back(i, max_nodes_, node_params);
      rngs_.push_back(base.split(static_cast<std::uint64_t>(i)));
    }
    topology_ = cluster::make_topology(config_.topology, max_nodes_);
  }

  static int effective_max_nodes(const SoakConfig& config) {
    int bound = std::max(config.max_nodes, config.n);
    for (const cluster::FaultEvent& e : config.scenario.events) {
      if (e.node >= 0) bound = std::max(bound, e.node + 1);
      for (const auto& group : e.groups) {
        for (rt::NodeId id : group) bound = std::max(bound, id + 1);
      }
    }
    return bound;
  }

  bool run(SoakReport& report, std::string& error) {
    const auto wall_start = std::chrono::steady_clock::now();
    RFD_REQUIRE_MSG(config_.n > 0 && config_.n <= max_nodes_,
                    "soak: n must be in [1, max_nodes]");
    RFD_REQUIRE_MSG(config_.tick_ms > 0.0, "soak: tick_ms must be > 0");
    RFD_REQUIRE_MSG(config_.scenario.validate().empty(),
                    "soak: malformed scenario timeline");
    if (config_.resume) {
      if (!restore(error)) return false;
      resumed_ = true;
    } else {
      seed_initial_membership();
    }
    open_trace();

    const std::int64_t total_ticks = static_cast<std::int64_t>(
        std::ceil(config_.duration_ms / config_.tick_ms));
    const std::int64_t start_tick = tick_;
    const bool checkpointing =
        !config_.checkpoint_path.empty() && config_.checkpoint_every_ms > 0.0;
    double next_checkpoint_ms =
        checkpointing
            ? static_cast<double>(start_tick) * config_.tick_ms +
                  config_.checkpoint_every_ms
            : std::numeric_limits<double>::infinity();

    std::int64_t ticks_run = 0;
    for (std::int64_t k = start_tick + 1; k <= total_ticks; ++k) {
      if (shutdown_requested()) {
        stopped_ = true;
        break;
      }
      const double now = static_cast<double>(k) * config_.tick_ms;
      if (!pace(k, start_tick, wall_start, now)) {
        stopped_ = true;
        break;
      }
      while (fault_cursor_ < faults_.size() &&
             faults_[fault_cursor_].at_ms <= now) {
        apply_fault(faults_[fault_cursor_++], now);
      }
      heartbeats(now);
      deliver(now);
      check(now);
      tick_ = k;
      ++ticks_run;
      if (trace_ != nullptr && config_.obs.snapshot_every_ticks > 0 &&
          k % config_.obs.snapshot_every_ticks == 0) {
        snapshot(now, k);
      }
      if (checkpointing && now >= next_checkpoint_ms) {
        if (!write_checkpoint_now(error)) return false;
        next_checkpoint_ms = now + config_.checkpoint_every_ms;
      }
    }

    if (!config_.checkpoint_path.empty() && ticks_run > 0) {
      // Final snapshot even without a cadence: a soak that exits
      // cleanly (or on a signal) always leaves a resumable state.
      if (!write_checkpoint_now(error)) return false;
    }
    finalize(report, ticks_run, wall_start);
    return true;
  }

 private:
  void build_transport() {
    std::unique_ptr<Transport> base;
    if (config_.backend == SoakBackend::kSim) {
      // The simulated network is a verdict network over an in-process
      // wire; it never duplicates, so it never draws from its dup stream.
      FlakyParams sim_params;
      sim_params.network = config_.network;
      auto sim = std::make_unique<FlakyTransport>(
          std::make_unique<LoopbackTransport>(), max_nodes_,
          mix_seed(config_.seed, 0x7e7a115ull), sim_params);
      sim_ = sim.get();
      base = std::move(sim);
    } else {
      auto udp = std::make_unique<UdpTransport>(max_nodes_, config_.udp);
      udp_ = udp.get();
      base = std::move(udp);
    }
    if (config_.flaky) {
      auto flaky = std::make_unique<FlakyTransport>(
          std::move(base), max_nodes_, mix_seed(config_.seed, 0xf1a4bull),
          config_.flaky_params);
      flaky_ = flaky.get();
      base = std::move(flaky);
    }
    transport_ = std::move(base);
  }

  void seed_initial_membership() {
    for (rt::NodeId i = 0; i < max_nodes_; ++i) {
      nodes_[static_cast<std::size_t>(i)].set_active(i < config_.n);
    }
    for (rt::NodeId i = 0; i < config_.n; ++i) {
      for (rt::NodeId j = 0; j < config_.n; ++j) {
        nodes_[static_cast<std::size_t>(i)].learn_peer(j, 0.0);
      }
    }
  }

  void open_trace() {
    if (!config_.obs.trace_enabled()) return;
    trace_ = std::make_unique<obs::TraceWriter>(config_.obs);
    if (!trace_->ok()) {
      trace_.reset();
      return;
    }
    if (sim_ != nullptr) sim_->set_trace(trace_.get());
    if (udp_ != nullptr) udp_->set_trace(trace_.get());
    if (flaky_ != nullptr) flaky_->set_trace(trace_.get());
    topology_->set_trace(trace_.get());
    qos_.set_trace(trace_.get());
    obs::JsonLine header;
    header.str("type", "run")
        .str("mode", "soak")
        .str("backend",
             config_.flaky ? "flaky" : soak_backend_name(config_.backend))
        .integer("n", config_.n)
        .integer("max_nodes", max_nodes_)
        .num("tick_ms", config_.tick_ms)
        .num("duration_ms", config_.duration_ms)
        .integer("seed", static_cast<std::int64_t>(config_.seed))
        .str("topology", topology_->name())
        .str("detector", rt::detector_kind_name(config_.detector.kind))
        .boolean("resume", resumed_)
        .integer("start_tick", tick_);
    trace_->write_line(header.finish());
  }

  /// UDP pacing: park in epoll (draining arrivals as they land) until
  /// this tick's wall deadline. Returns false when a shutdown signal
  /// arrived mid-wait. The sim backend runs the grid unpaced.
  bool pace(std::int64_t k, std::int64_t start_tick,
            std::chrono::steady_clock::time_point wall_start, double now) {
    if (udp_ == nullptr) return true;
    const double target = static_cast<double>(k - start_tick) *
                          config_.tick_ms * config_.time_scale;
    for (;;) {
      if (shutdown_requested()) return false;
      const double wall = wall_elapsed_ms(wall_start);
      if (wall >= target) return true;
      // Bounded slices keep signal response prompt on slow grids.
      udp_->wait_readable(std::min(target - wall, 50.0));
      transport_->poll(now, pending_);
    }
  }

  // The .scn semantics are the shared interpreter's; network-shaped
  // faults go to the transport's verdict network (run_soak refuses a
  // scenario with network faults on a transport that has none).
  void apply_fault(const cluster::FaultEvent& event, double now) {
    rt::Network* net = transport_->fault_network();
    cluster::ClusterNode* node =
        event.node >= 0 ? &nodes_[static_cast<std::size_t>(event.node)]
                        : nullptr;
    if (truth_.apply(event, now, node) == cluster::FaultEffect::kIgnored) {
      return;
    }
    if (trace_ != nullptr) trace_->emit(cluster::fault_record(event, now));
    if (net != nullptr) cluster::apply_network_fault(event, *net);
  }

  void heartbeats(double now) {
    for (rt::NodeId i = 0; i < max_nodes_; ++i) {
      cluster::ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
      if (!node.active()) continue;
      node.advance_own_counter();
      const std::uint32_t advertised =
          truth_.advertise(i, node.own_counter());
      targets_scratch_.clear();
      topology_->targets(node, rngs_[static_cast<std::size_t>(i)], now,
                         targets_scratch_);
      for (rt::NodeId target : targets_scratch_) {
        digest_scratch_.clear();
        topology_->digest(node, target, digest_scratch_);
        payload_scratch_.clear();
        encoder_.encode(
            advertised, digest_scratch_,
            [&node](rt::NodeId id) {
              return static_cast<std::uint32_t>(node.counter(id));
            },
            payload_scratch_);
        transport_->send(i, target, payload_scratch_.data(),
                         payload_scratch_.size(), now);
        if (trace_ != nullptr) {
          obs::Record r;
          r.type = obs::RecordType::kHbSend;
          r.t = now;
          r.a = i;
          r.b = target;
          r.c = static_cast<std::int64_t>(digest_scratch_.size()) + 1;
          trace_->emit(r);
        }
      }
    }
  }

  void deliver(double now) {
    transport_->poll(now, pending_);
    for (const Delivery& d : pending_) {
      if (d.to < 0 || d.to >= max_nodes_) continue;
      cluster::ClusterNode& node = nodes_[static_cast<std::size_t>(d.to)];
      if (!node.active()) continue;  // crashed sockets still receive; drop
      // Bytes off a real socket: a payload the reader rejects, or one
      // with bytes after its last entry, is dropped, never fatal. The
      // entries read before the reader stopped have been observed; the
      // hb_recv record is skipped.
      cluster::DigestReader reader(d.payload.data(), d.payload.size(),
                                   max_nodes_);
      std::uint32_t own = 0;
      std::uint32_t count = 0;
      if (!reader.header(own, count)) continue;
      std::int64_t advances = 0;
      if (node.observe(d.from, own, d.at_ms).advanced) ++advances;
      bool ok = true;
      for (std::uint32_t e = 0; ok && e < count; ++e) {
        rt::NodeId id = 0;
        std::uint32_t counter = 0;
        ok = reader.entry(id, counter);
        if (ok && node.observe(id, counter, d.at_ms).advanced) ++advances;
      }
      if (!ok || !reader.done()) continue;
      if (trace_ != nullptr) {
        obs::Record r;
        r.type = obs::RecordType::kHbRecv;
        r.t = d.at_ms;
        r.a = d.to;
        r.b = d.from;
        r.c = static_cast<std::int64_t>(count) + 1;
        r.x = static_cast<double>(advances);
        trace_->emit(r);
      }
    }
    pending_.clear();
  }

  void check(double now) {
    for (rt::NodeId i = 0; i < max_nodes_; ++i) {
      cluster::ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
      if (!node.active()) continue;
      for (rt::NodeId j = 0; j < max_nodes_; ++j) {
        if (j == i || !node.knows(j)) continue;
        const bool verdict = node.suspects(j, now);
        if (verdict == node.is_suspected(j)) continue;
        node.set_suspected(j, verdict, verdict ? now : -1.0);
        if (qos_.flip(i, j, verdict, truth_.truly_down(j), now)) {
          detection_samples_.push_back(now - truth_.down_since(j));
        }
      }
    }
  }

  void snapshot(double now, std::int64_t tick) {
    const TransportCounters c = transport_->counters();
    registry_.gauge("transport.sent").set(static_cast<double>(c.sent));
    registry_.gauge("transport.delivered")
        .set(static_cast<double>(c.delivered));
    registry_.gauge("transport.dropped").set(static_cast<double>(c.dropped));
    registry_.gauge("transport.duplicated")
        .set(static_cast<double>(c.duplicated));
    registry_.gauge("transport.queue_drops")
        .set(static_cast<double>(c.queue_drops));
    registry_.gauge("transport.retries").set(static_cast<double>(c.retries));
    registry_.gauge("transport.sock_errors")
        .set(static_cast<double>(c.sock_errors));
    registry_.gauge("soak.raises").set(static_cast<double>(qos_.raises()));
    registry_.gauge("soak.clears").set(static_cast<double>(qos_.clears()));
    registry_.gauge("soak.false_suspicions")
        .set(static_cast<double>(qos_.false_suspicions()));
    registry_.gauge("soak.checkpoints")
        .set(static_cast<double>(checkpoints_written_));
    registry_.snapshot(*trace_, now, tick);
  }

  void serialize(std::vector<std::uint8_t>& out) const {
    ByteWriter w(out);
    w.u32(kPayloadMagic);
    w.i32(config_.n);
    w.i32(max_nodes_);
    std::vector<std::uint8_t> node_bytes;
    for (const cluster::ClusterNode& node : nodes_) {
      node_bytes.clear();
      node.save_state(node_bytes);
      w.u32(static_cast<std::uint32_t>(node_bytes.size()));
      w.bytes(node_bytes.data(), node_bytes.size());
    }
    for (const Rng& rng : rngs_) {
      for (std::uint64_t word : rng.save_state()) w.u64(word);
    }
    truth_.save(w);
    w.u32(static_cast<std::uint32_t>(fault_cursor_));
    qos_.save(w);
    w.u32(static_cast<std::uint32_t>(detection_samples_.size()));
    for (double s : detection_samples_) w.f64(s);
    std::vector<std::uint8_t> transport_bytes;
    const bool saved = transport_->save_state(transport_bytes);
    w.u8(saved ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(transport_bytes.size()));
    w.bytes(transport_bytes.data(), transport_bytes.size());
  }

  bool write_checkpoint_now(std::string& error) {
    if (config_.checkpoint_path.empty()) return true;
    CheckpointData data;
    data.config_fingerprint = fingerprint_;
    data.tick = tick_;
    data.now_ms = static_cast<double>(tick_) * config_.tick_ms;
    serialize(data.payload);
    if (!write_checkpoint(config_.checkpoint_path, data, error)) {
      return false;
    }
    ++checkpoints_written_;
    return true;
  }

  bool restore(std::string& error) {
    CheckpointData data;
    if (!read_checkpoint(config_.checkpoint_path, fingerprint_, data,
                         error)) {
      return false;
    }
    ByteReader r(data.payload.data(), data.payload.size());
    if (r.u32() != kPayloadMagic) {
      error = "checkpoint payload is not a soak snapshot";
      return false;
    }
    if (r.i32() != config_.n || r.i32() != max_nodes_) {
      error = "checkpoint node counts do not match this configuration";
      return false;
    }
    for (cluster::ClusterNode& node : nodes_) {
      const std::uint32_t len = r.u32();
      if (!r.ok() || len > r.remaining()) {
        error = "checkpoint truncated in node state";
        return false;
      }
      std::vector<std::uint8_t> node_bytes(len);
      if (len != 0 && !r.bytes(node_bytes.data(), len)) {
        error = "checkpoint truncated in node state";
        return false;
      }
      std::size_t consumed = 0;
      if (!node.restore_state(node_bytes.data(), node_bytes.size(),
                              consumed) ||
          consumed != node_bytes.size()) {
        error = "checkpoint node state is inconsistent";
        return false;
      }
    }
    for (Rng& rng : rngs_) {
      std::array<std::uint64_t, 5> state{};
      for (std::uint64_t& word : state) word = r.u64();
      rng.restore_state(state);
    }
    truth_.restore(r);
    const std::uint32_t cursor = r.u32();
    qos_.restore(r);
    const std::uint32_t sample_count = r.u32();
    if (!r.ok() || cursor > faults_.size() ||
        sample_count > (1u << 24)) {
      error = "checkpoint bookkeeping is inconsistent";
      return false;
    }
    fault_cursor_ = cursor;
    detection_samples_.resize(sample_count);
    for (double& s : detection_samples_) s = r.f64();
    const bool transport_saved = r.u8() != 0;
    const std::uint32_t transport_len = r.u32();
    if (!r.ok() || transport_len > r.remaining()) {
      error = "checkpoint truncated in transport state";
      return false;
    }
    std::vector<std::uint8_t> transport_bytes(transport_len);
    if (transport_len != 0 &&
        !r.bytes(transport_bytes.data(), transport_len)) {
      error = "checkpoint truncated in transport state";
      return false;
    }
    if (!r.ok()) {
      error = "checkpoint payload truncated";
      return false;
    }
    if (transport_saved &&
        !transport_->restore_state(transport_bytes.data(),
                                   transport_bytes.size())) {
      error = "checkpoint transport state is inconsistent";
      return false;
    }
    // Re-apply the network faults the saved run had already consumed:
    // network fault state (partitions, storms, blocks, slow factors) is
    // deliberately not serialized - replaying the timeline prefix
    // against the fresh verdict network rebuilds it.
    if (rt::Network* net = transport_->fault_network()) {
      for (std::size_t i = 0; i < fault_cursor_; ++i) {
        cluster::apply_network_fault(faults_[i], *net);
      }
    }
    tick_ = data.tick;
    return true;
  }

  void finalize(SoakReport& report, std::int64_t ticks_run,
                std::chrono::steady_clock::time_point wall_start) {
    report.backend = soak_backend_name(config_.backend);
    if (config_.flaky) report.backend += "+flaky";
    report.n = config_.n;
    report.max_nodes = max_nodes_;
    report.sim_ms = static_cast<double>(tick_) * config_.tick_ms;
    report.ticks_run = ticks_run;
    report.transport = transport_->counters();
    report.raises = qos_.raises();
    report.clears = qos_.clears();
    report.false_suspicions = qos_.false_suspicions();
    for (double s : detection_samples_) report.detection.add(s);
    // A down victim its observer never met counts as missed here; the
    // samples were taken at raise time, so the pass's are not needed.
    const cluster::StandingTally tally = cluster::standing_suspicions(
        truth_, true,
        [this](rt::NodeId i, rt::NodeId j) {
          return cluster::standing_of(nodes_[static_cast<std::size_t>(i)], j);
        },
        [](double) {});
    report.missed = tally.missed + tally.unmet;
    report.final_agreement = report.missed == 0 && tally.wrong == 0;
    report.checkpoints_written = checkpoints_written_;
    report.resumed = resumed_;
    report.stopped_by_signal = stopped_;
    report.wall_ms = wall_elapsed_ms(wall_start);
    report.outcome_fingerprint = outcome_fingerprint(report);
    if (trace_ != nullptr) {
      obs::JsonLine footer;
      footer.str("type", "end")
          .num("t", report.sim_ms)
          .integer("ticks", tick_)
          .integer("raises", report.raises)
          .integer("clears", report.clears)
          .integer("false", report.false_suspicions)
          .integer("missed", report.missed)
          .boolean("agreement", report.final_agreement)
          .boolean("signal", stopped_)
          .integer("checkpoints", checkpoints_written_);
      trace_->write_line(footer.finish());
      trace_->flush();
      report.trace_records = trace_->written_records();
      report.trace_dropped = trace_->dropped();
      trace_->close();
    }
  }

  std::uint64_t outcome_fingerprint(const SoakReport& report) const {
    std::vector<std::uint8_t> blob;
    ByteWriter w(blob);
    w.i64(tick_);
    w.i64(report.raises);
    w.i64(report.clears);
    w.i64(report.false_suspicions);
    w.i64(report.missed);
    w.u8(report.final_agreement ? 1 : 0);
    w.i64(report.transport.sent);
    w.i64(report.transport.delivered);
    w.i64(report.transport.dropped);
    w.i64(report.transport.duplicated);
    for (double s : detection_samples_) w.f64(s);
    return fnv1a(blob.data(), blob.size(), fnv1a_init());
  }

  SoakConfig config_;
  int max_nodes_;
  std::uint64_t fingerprint_;
  std::vector<cluster::FaultEvent> faults_;
  std::size_t fault_cursor_ = 0;

  std::unique_ptr<Transport> transport_;
  FlakyTransport* sim_ = nullptr;  // the sim backend's verdict network
  UdpTransport* udp_ = nullptr;
  FlakyTransport* flaky_ = nullptr;

  std::vector<cluster::ClusterNode> nodes_;
  std::vector<Rng> rngs_;
  std::unique_ptr<cluster::Topology> topology_;
  cluster::FaultState truth_;
  cluster::QosLedger qos_;
  cluster::DigestEncoder encoder_;

  std::int64_t tick_ = 0;  // last completed tick
  /// Crash -> raise latencies, one per raise against a down peer.
  std::vector<double> detection_samples_;
  int checkpoints_written_ = 0;
  bool resumed_ = false;
  bool stopped_ = false;

  std::unique_ptr<obs::TraceWriter> trace_;
  obs::Registry registry_;

  std::vector<rt::NodeId> targets_scratch_;
  std::vector<rt::NodeId> digest_scratch_;
  std::vector<std::uint8_t> payload_scratch_;
  std::vector<Delivery> pending_;
};

}  // namespace

const char* soak_backend_name(SoakBackend backend) {
  return backend == SoakBackend::kSim ? "sim" : "udp";
}

std::uint64_t soak_config_fingerprint(const SoakConfig& config) {
  std::vector<std::uint8_t> blob;
  ByteWriter w(blob);
  w.u32(kPayloadMagic);
  w.u8(config.backend == SoakBackend::kSim ? 0 : 1);
  w.u8(config.flaky ? 1 : 0);
  w.i32(config.n);
  w.i32(SoakRunner::effective_max_nodes(config));
  w.f64(config.tick_ms);
  w.f64(config.bootstrap_grace_ms);
  w.i32(config.hot_transmissions);
  w.u64(config.seed);
  w.u8(static_cast<std::uint8_t>(config.topology.kind));
  w.i32(config.topology.ring_successors);
  w.i32(config.topology.gossip_fanout);
  w.f64(config.topology.gossip_resurrect_prob);
  w.i32(config.topology.digest_size);
  w.i32(config.topology.cluster_size);
  w.u8(static_cast<std::uint8_t>(config.detector.kind));
  w.f64(config.detector.fixed.timeout_ms);
  w.i32(config.detector.chen.window);
  w.f64(config.detector.chen.alpha_ms);
  w.f64(config.detector.chen.fallback_timeout_ms);
  w.i32(config.detector.phi.window);
  w.f64(config.detector.phi.threshold);
  w.f64(config.detector.phi.min_stddev_ms);
  w.f64(config.detector.phi.fallback_timeout_ms);
  auto put_network = [&w](const rt::NetworkParams& net) {
    w.f64(net.min_delay_ms);
    w.f64(net.jitter_mu);
    w.f64(net.jitter_sigma);
    w.f64(net.loss_prob);
    w.f64(net.gst_ms);
    w.f64(net.pre_gst_extra_ms);
    w.f64(net.pre_gst_chaos_prob);
  };
  put_network(config.network);
  put_network(config.flaky_params.network);
  w.f64(config.flaky_params.dup_prob);
  const std::vector<cluster::FaultEvent> sorted = config.scenario.sorted();
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  for (const cluster::FaultEvent& e : sorted) {
    w.f64(e.at_ms);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.i32(e.node);
    w.u32(static_cast<std::uint32_t>(e.groups.size()));
    for (const auto& group : e.groups) {
      w.u32(static_cast<std::uint32_t>(group.size()));
      for (rt::NodeId id : group) w.i32(id);
    }
    w.f64(e.extra_delay_ms);
    w.f64(e.delay_prob);
    w.f64(e.factor);
  }
  return fnv1a(blob.data(), blob.size(), fnv1a_init());
}

bool run_soak(const SoakConfig& config, SoakReport& report,
              std::string& error) {
  // Refused before any socket is bound: a bare UdpTransport has no
  // verdict network, so it would run without the scenario's network
  // faults.
  if (config.backend == SoakBackend::kUdp && !config.flaky) {
    for (const cluster::FaultEvent& event : config.scenario.events) {
      if (cluster::is_network_fault(event.kind)) {
        error = "the scenario has network faults, which the udp backend "
                "applies only through an injection layer: run with --flaky";
        return false;
      }
    }
  }
  SoakRunner runner(config);
  return runner.run(report, error);
}

}  // namespace rfd::transport
