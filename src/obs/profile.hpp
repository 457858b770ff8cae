// Cheap scoped phase timers for the simulation hot spots.
//
// A disabled profiler (null pointer) costs one predictable branch per
// scope. An enabled one counts every entry exactly but reads the clock
// only on 1 of every 16 entries, so the per-call overhead
// stays far below the sections under measurement; durations are scaled
// estimates (sampled time * calls / sampled), counts are exact. The
// phases are the known hot spots from the PR-5 profiling work:
// ClusterNode::observe (the engine's receive loop), GossipTopology::digest
// (per-message digest selection), the engine's heartbeat-pump dispatch,
// and Network::route.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rfd::obs {

enum class Phase : std::uint8_t {
  kObserve = 0,  // engine receive loop (ClusterNode::observe per entry)
  kDigest,       // topology digest selection per outgoing message
  kDispatch,     // one heartbeat pump of the engine (digests + routes)
  kRoute,        // Network::route verdict + delay draw
  kSync,         // sharded-core barrier waits (per-shard idle time)
};
inline constexpr int kNumPhases = 5;

const char* phase_name(Phase phase);

/// Rollup of one phase, as it lands in the trace and the BENCH json.
struct PhaseStat {
  std::string phase;
  std::int64_t calls = 0;
  std::int64_t sampled = 0;
  /// Scaled wall-clock estimate: sampled nanoseconds * calls / sampled.
  double est_ms = 0.0;
};

class Profiler {
 public:
  /// Rollups for every phase that was entered at least once.
  std::vector<PhaseStat> stats() const;

 private:
  friend class ScopedPhase;
  /// Times 1 of every 16 entries of a phase.
  static constexpr std::int64_t kSampleMask = 15;
  struct Acc {
    std::int64_t calls = 0;
    std::int64_t sampled = 0;
    std::int64_t ns = 0;
  };
  Acc acc_[kNumPhases];
};

/// RAII phase scope. `profiler == nullptr` disables it entirely.
/// `always = true` bypasses sampling and times every entry — used for
/// rare-but-variable scopes (barrier waits: a handful per check tick,
/// with durations too skewed for 1-in-16 sampling to estimate).
class ScopedPhase {
 public:
  ScopedPhase(Profiler* profiler, Phase phase, bool always = false) {
    if (profiler == nullptr) return;
    Profiler::Acc& acc =
        profiler->acc_[static_cast<std::size_t>(phase)];
    const bool sample = always || (acc.calls & Profiler::kSampleMask) == 0;
    ++acc.calls;
    if (!sample) return;
    acc_ = &acc;
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedPhase() {
    if (acc_ == nullptr) return;
    acc_->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    ++acc_->sampled;
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler::Acc* acc_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rfd::obs
