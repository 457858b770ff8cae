// Checkpointed soak runner: the cluster protocol driven over a real or
// simulated Transport for long wall-clock runs.
//
// The sharded engine (cluster/engine.*) is the scale instrument - it
// owns time and runs as fast as the CPU allows. The soak runner is the
// robustness instrument: one single-threaded driver loop that advances
// a unified tick grid (heartbeat and suspicion checks share the grid),
// pushes digests through a Transport and replays the same scenario DSL
// fault timelines the simulator uses. The sim backend is a
// FlakyTransport over a LoopbackTransport (its verdict network is the
// simulated network); the udp backend is UdpTransport on real kernel
// sockets; `flaky` layers one more FlakyTransport on either for
// socket-boundary fault injection.
//
// What makes it a *soak* runner:
//   - periodic versioned, CRC-checked checkpoints of the full mutable
//     state (nodes, detectors, RNG streams, fault cursor, metrics, and
//     the transport when it can serialize itself), written atomically;
//   - crash-resume: a run started with resume=true picks up from the
//     last checkpoint and - on the sim backend - produces the exact
//     counters and detection samples an uninterrupted run would have;
//   - graceful SIGINT/SIGTERM shutdown: the loop notices the flag at
//     the next tick, writes a final checkpoint, flushes the trace ring
//     and emits the end-of-run footer before exiting.
//
// All of the real-time machinery (pacing, epoll parking) engages only
// on the UDP backend; the sim backend runs the grid as fast as it can,
// which is what the resume-equivalence tests rely on.
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
  /// Unified driver grid: heartbeats advance and suspicion verdicts are
  /// re-evaluated once per tick. (The sharded engine separates the two
  /// cadences; the soak driver trades that for a loop whose state is
  /// trivially checkpointable at tick boundaries.)
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
  /// resumes) and ticks executed by *this* process.
  double sim_ms = 0.0;
  std::int64_t ticks_run = 0;
  double wall_ms = 0.0;

  TransportCounters transport;

  /// Suspicion churn over the whole (resumed) run.
  std::int64_t raises = 0;
  std::int64_t clears = 0;
  std::int64_t false_suspicions = 0;
  /// Crash-to-raise latencies (ms), one per raise against a down peer
  /// (see cluster/fault_state.hpp), cumulative across resumes.
  Summary detection;
  /// (live observer, truly down peer) pairs still unsuspected at exit.
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

/// Executes the soak run. On resume failure (missing/corrupt/foreign
/// checkpoint), or for a UDP run whose scenario has network faults but
/// no `flaky` injection layer, returns false and fills `error` without
/// running.
bool run_soak(const SoakConfig& config, SoakReport& report,
              std::string& error);

}  // namespace rfd::transport
