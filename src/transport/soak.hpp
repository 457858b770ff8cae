// The checkpointed soak: the cluster engine (cluster/engine.hpp) over a
// caller's transport, for long wall-clock runs over a real or simulated
// network. run_soak builds the backend - a FlakyTransport with no inner
// wire (sim: its verdict network is the simulated network, its hold
// buffer the wire) or a UdpTransport on real kernel sockets, with
// `flaky` layering one more FlakyTransport on either for socket-boundary
// fault injection - maps SoakConfig onto the engine on one shard, with
// heartbeat = check = tick_ms, and maps the result onto SoakReport. The
// engine runs the same scenario DSL timelines the simulator uses.
//
// What the soak adds, in the engine's per-window callback:
//   - a whole-tick horizon: ceil(duration_ms / tick_ms) windows, so the
//     run never reaches the engine's off-grid tail and every checkpoint
//     sits on a check tick;
//   - periodic versioned, CRC-checked checkpoints of the engine state and
//     the transport's own, written atomically; a checkpoint whose engine
//     state an older build wrote is refused with an error;
//   - crash-resume: a run started with resume=true continues from the
//     last checkpoint and - on the sim backend - reproduces the protocol
//     records and the outcome of an uninterrupted run, for every
//     topology; on UDP the transport counters carry on, while datagrams
//     in flight at the checkpoint are lost;
//   - graceful SIGINT/SIGTERM shutdown: the run ends after the current
//     window (the first always runs), writes a final checkpoint and
//     flushes the trace;
//   - UDP pacing: with time_scale > 0, each window waits for its
//     wall-clock start, in slices of at most 50 ms that notice a
//     shutdown. The sim backend runs as fast as it can.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/scenario.hpp"
#include "cluster/topology.hpp"
#include "common/stats.hpp"
#include "obs/config.hpp"
#include "runtime/detectors.hpp"
#include "runtime/network.hpp"
#include "transport/flaky.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

namespace rfd::transport {

enum class SoakBackend { kSim, kUdp };

/// Largest digest a soak heartbeat should carry. Its worst-case frame,
/// 256 x (2 B id gap + 5 B counter) + 7 B of own/count varints + the
/// 12 B frame header = 1,811 B, fits UdpTransport's 2,048 B datagram for
/// any counter value and any max_nodes < 4096.
inline constexpr int kMaxSoakDigest = 256;

const char* soak_backend_name(SoakBackend backend);

struct SoakConfig {
  /// Initially active nodes (ids 0..n-1).
  int n = 16;
  /// Id-space bound; 0 derives max(n, highest scenario node id + 1).
  int max_nodes = 0;

  cluster::TopologyParams topology;
  rt::DetectorParams detector;
  /// The engine's heartbeat and check interval: each node heartbeats
  /// once per tick at its own phase, and verdicts are judged per tick.
  double tick_ms = 100.0;
  double bootstrap_grace_ms = 1500.0;
  int hot_transmissions = 4;

  /// Simulated duration to cover (the resume path continues toward the
  /// same horizon; a longer horizon on resume extends the run).
  double duration_ms = 60'000.0;
  cluster::Scenario scenario;
  std::uint64_t seed = 1;

  SoakBackend backend = SoakBackend::kSim;
  /// Sim backend: the verdict/delay model of the simulated transport.
  rt::NetworkParams network;
  /// Wrap the backend in FlakyTransport (socket-boundary injection).
  /// This is how scenario network faults reach the UDP backend, which
  /// has no verdict network of its own: run_soak refuses a UDP run
  /// whose scenario has network faults without it.
  bool flaky = false;
  FlakyParams flaky_params;
  UdpParams udp;

  /// Checkpointing: empty path or cadence 0 disables. A final
  /// checkpoint is always written on exit when enabled.
  std::string checkpoint_path;
  double checkpoint_every_ms = 0.0;
  /// Resume from checkpoint_path instead of starting fresh.
  bool resume = false;

  /// UDP pacing: wall-clock ms per simulated ms (1.0 = real time,
  /// 0.1 = 10x faster). Ignored by the sim backend.
  double time_scale = 1.0;

  obs::Config obs;
};

struct SoakReport {
  std::string backend;
  int n = 0;
  int max_nodes = 0;
  /// Simulated time covered by the end of the run (cumulative across
  /// resumes) and check windows executed by *this* process.
  double sim_ms = 0.0;
  std::int64_t ticks_run = 0;
  double wall_ms = 0.0;

  TransportCounters transport;

  /// Suspicion churn over the whole (resumed) run.
  std::int64_t raises = 0;
  std::int64_t clears = 0;
  std::int64_t false_suspicions = 0;
  /// Crash-to-raise latencies (ms), one per raise against a down peer
  /// (see cluster/fault_state.hpp), cumulative across resumes, ascending.
  Summary detection;
  /// (live observer, truly down peer) pairs still unsuspected at exit,
  /// counting victims the observer never met.
  std::int64_t missed = 0;
  /// Every live node's suspected set matches the true crashed set.
  bool final_agreement = false;

  int checkpoints_written = 0;
  bool resumed = false;
  bool stopped_by_signal = false;

  std::int64_t trace_records = 0;
  std::int64_t trace_dropped = 0;

  /// FNV-1a over the deterministic outcome (counters, samples, final
  /// tick): two sim-backend runs that covered the same timeline - with
  /// or without a kill/resume in the middle - hash identically.
  std::uint64_t outcome_fingerprint = 0;
};

/// Hash of the run-defining configuration (everything except duration,
/// checkpoint bookkeeping, pacing and observability). Stamped into
/// checkpoints so a resume under a different config is refused.
std::uint64_t soak_config_fingerprint(const SoakConfig& config);

/// Executes the soak run. On a config the engine, the sim network, the
/// injection layer or the socket layer refuses (n < 2, a timeout of 0 or
/// NaN, a loss or duplication probability outside its range, a UDP port
/// range past 65535, a UDP run whose scenario has network faults but no
/// `flaky` injection layer, ...) or a resume
/// failure (missing/corrupt/foreign checkpoint), returns false and fills
/// `error` without running.
bool run_soak(const SoakConfig& config, SoakReport& report,
              std::string& error);

}  // namespace rfd::transport
