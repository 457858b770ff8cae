#include "transport/soak.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/engine.hpp"
#include "cluster/fault_state.hpp"
#include "common/bytes.hpp"
#include "common/shutdown.hpp"
#include "transport/checkpoint.hpp"

namespace rfd::transport {

namespace {

/// Leads soak_config_fingerprint's blob ("SOAK").
constexpr std::uint32_t kFingerprintMagic = 0x4b414f53u;

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : bytes) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  return h;
}

double wall_elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int effective_max_nodes(const SoakConfig& config) {
  int bound = std::max(config.max_nodes, config.n);
  for (const cluster::FaultEvent& e : config.scenario.events) {
    if (e.node >= 0) bound = std::max(bound, e.node + 1);
    for (const auto& group : e.groups) {
      for (rt::NodeId id : group) bound = std::max(bound, id + 1);
    }
  }
  return bound;
}

/// Why the socket layer would refuse `config`, or empty.
std::string udp_refusal(const SoakConfig& config, int max_nodes) {
  if (config.backend != SoakBackend::kUdp) return {};
  if (max_nodes >= 4096) return "the udp backend takes fewer than 4096 nodes";
  const int last_port = config.udp.base_port + max_nodes - 1;
  if (config.udp.base_port < 1 || last_port > 65535) {
    return "udp ports " + std::to_string(config.udp.base_port) + "-" +
           std::to_string(last_port) + " run past 65535";
  }
  return {};
}

/// FNV-1a over the deterministic outcome: counters, samples, final tick.
std::uint64_t outcome_fingerprint(const SoakReport& report,
                                  std::int64_t tick,
                                  const std::vector<double>& samples) {
  std::vector<std::uint8_t> blob;
  ByteWriter w(blob);
  w.i64(tick);
  w.i64(report.raises);
  w.i64(report.clears);
  w.i64(report.false_suspicions);
  w.i64(report.missed);
  w.u8(report.final_agreement ? 1 : 0);
  w.i64(report.transport.sent);
  w.i64(report.transport.delivered);
  w.i64(report.transport.dropped);
  w.i64(report.transport.duplicated);
  for (double s : samples) w.f64(s);
  return fnv1a(blob);
}

}  // namespace

const char* soak_backend_name(SoakBackend backend) {
  return backend == SoakBackend::kSim ? "sim" : "udp";
}

std::uint64_t soak_config_fingerprint(const SoakConfig& config) {
  std::vector<std::uint8_t> blob;
  ByteWriter w(blob);
  w.u32(kFingerprintMagic);
  w.u8(config.backend == SoakBackend::kSim ? 0 : 1);
  w.u8(config.flaky ? 1 : 0);
  w.i32(config.n);
  w.i32(effective_max_nodes(config));
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
  return fnv1a(blob);
}

bool run_soak(const SoakConfig& config, SoakReport& report,
              std::string& error) {
  const auto wall_start = std::chrono::steady_clock::now();
  report = SoakReport{};
  const int max_nodes = effective_max_nodes(config);
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

  // One grid: a heartbeat and a check per tick, over ceil(duration /
  // tick) windows. Half a tick of slack: however the engine's summed grid
  // rounds, its last tick is that count, and a caller's transport runs
  // no tail window.
  const double ticks =
      std::max(0.0, std::ceil(config.duration_ms / config.tick_ms));
  cluster::ClusterConfig engine;
  engine.n = config.n;
  engine.max_nodes = max_nodes;
  engine.topology = config.topology;
  engine.detector = config.detector;
  engine.heartbeat_interval_ms = config.tick_ms;
  engine.check_interval_ms = config.tick_ms;
  engine.bootstrap_grace_ms = config.bootstrap_grace_ms;
  engine.hot_transmissions = config.hot_transmissions;
  engine.duration_ms = (ticks + 0.5) * config.tick_ms;
  engine.scenario = config.scenario;
  engine.obs = config.obs;
  // Refused as errors before anything is built, so no socket is bound:
  // what the engine, the sim backend's network and the injection layer
  // would abort on, and what the sockets cannot take.
  error = cluster::config_error(engine);
  if (error.empty()) error = cluster::network_error(config.network);
  if (error.empty() && config.flaky) {
    error = cluster::network_error(config.flaky_params.network);
    if (error.empty() && !(config.flaky_params.dup_prob >= 0.0 &&
                           config.flaky_params.dup_prob <= 1.0)) {
      error = "injection duplication probability must lie in [0, 1]";
    }
  }
  if (error.empty()) error = udp_refusal(config, max_nodes);
  if (!error.empty()) return false;
  const auto total_ticks = static_cast<std::int64_t>(ticks);

  std::unique_ptr<Transport> transport;
  if (config.backend == SoakBackend::kSim) {
    // The simulated network is a verdict network whose hold buffer is
    // the wire; it never duplicates, so it never draws from its dup
    // stream.
    FlakyParams sim_params;
    sim_params.network = config.network;
    transport = std::make_unique<FlakyTransport>(
        nullptr, max_nodes, mix_seed(config.seed, 0x7e7a115ull), sim_params);
  } else {
    transport = std::make_unique<UdpTransport>(max_nodes, config.udp);
  }
  if (config.flaky) {
    transport = std::make_unique<FlakyTransport>(
        std::move(transport), max_nodes, mix_seed(config.seed, 0xf1a4bull),
        config.flaky_params);
  }
  engine.transport = transport.get();

  const std::uint64_t fingerprint = soak_config_fingerprint(config);
  const bool checkpointing =
      !config.checkpoint_path.empty() && config.checkpoint_every_ms > 0.0;
  bool started = false;
  bool failed = false;
  std::int64_t start_tick = 0;
  std::int64_t tick = 0;
  double next_checkpoint_ms = std::numeric_limits<double>::infinity();
  const auto write_now = [&](cluster::WindowBoundary& w) {
    CheckpointData data;
    data.config_fingerprint = fingerprint;
    data.tick = w.tick();
    data.now_ms = w.now_ms();
    w.save_state(data.payload);
    failed = !write_checkpoint(config.checkpoint_path, data, error);
    if (!failed) ++report.checkpoints_written;
    return !failed;
  };
  // UDP pacing: window k + 1 starts once the wall clock reaches tick k's
  // time (from the start, times time_scale), waiting in slices of at
  // most 50 ms. Returns false when a shutdown arrives first.
  const auto pace = [&] {
    if (config.backend != SoakBackend::kUdp || !(config.time_scale > 0.0)) {
      return !shutdown_requested();
    }
    const double target = static_cast<double>(tick - start_tick) *
                          config.tick_ms * config.time_scale;
    for (;;) {
      if (shutdown_requested()) return false;
      const double wall = wall_elapsed_ms(wall_start);
      if (wall >= target) return true;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::min(target - wall, 50.0)));
    }
  };
  engine.on_window = [&](cluster::WindowBoundary& w) {
    if (!started) {  // before the first window
      started = true;
      if (config.resume) {
        CheckpointData data;
        if (!read_checkpoint(config.checkpoint_path, fingerprint, data,
                             error) ||
            !w.restore_state(data.payload.data(), data.payload.size(),
                             error)) {
          failed = true;
          return false;
        }
        report.resumed = true;
      }
      start_tick = tick = w.tick();
      report.sim_ms = w.now_ms();
      if (checkpointing) {
        next_checkpoint_ms = report.sim_ms + config.checkpoint_every_ms;
      }
      return true;
    }
    tick = w.tick();
    report.sim_ms = w.now_ms();
    ++report.ticks_run;
    if (report.sim_ms >= next_checkpoint_ms) {
      if (!write_now(w)) return false;
      next_checkpoint_ms = report.sim_ms + config.checkpoint_every_ms;
    }
    if (tick < total_ticks && pace()) return true;
    report.stopped_by_signal = tick < total_ticks;
    // A soak that ends, on its horizon or on a signal, always leaves a
    // resumable state.
    if (!config.checkpoint_path.empty()) write_now(w);
    return false;
  };

  const cluster::ClusterReport result =
      cluster::run_cluster(engine, config.seed);
  if (failed) return false;
  report.backend = soak_backend_name(config.backend);
  if (config.flaky) report.backend += "+flaky";
  report.n = config.n;
  report.max_nodes = max_nodes;
  report.transport = transport->counters();
  report.raises = result.suspicion_raises;
  report.clears = result.suspicion_clears;
  report.false_suspicions = result.false_suspicions;
  for (double s : result.raise_latency_ms) report.detection.add(s);
  report.missed = result.missed_detections + result.unmet_victims;
  report.final_agreement = report.missed == 0 && result.final_agreement;
  report.trace_records = result.trace_records;
  report.trace_dropped = result.trace_dropped;
  report.wall_ms = wall_elapsed_ms(wall_start);
  report.outcome_fingerprint =
      outcome_fingerprint(report, tick, result.raise_latency_ms);
  return true;
}

}  // namespace rfd::transport
