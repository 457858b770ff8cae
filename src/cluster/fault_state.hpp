// The one interpreter of scenario faults and the one ledger of suspicion
// verdicts, shared by the cluster engine (and so the soak, which is the
// engine over a transport) and the offline trace replay. The paper
// scores a detector against the real failure pattern (strong
// completeness, strong accuracy); both need the same ground truth and the
// same accounting of verdict flips against it to keep that score, so a
// `.scn` timeline means one thing on every backend, and a replayed trace
// re-derives the live numbers by construction.
//
// A mistake is a stretch during which a live observer suspects a live
// peer: from the raise, or from the peer's restart under a standing
// suspicion, to the clear or to either node going down. The ledger counts
// each one and adds its length when it ends; one still open at the end of
// a run is not booked.
//
// Detection samples have two definitions, one per report. ClusterReport
// (and the replay) takes, per (live observer, crashed victim) pair, crash
// -> start of the suspicion still standing at the end of the run: a
// completeness measure that ignores suspicions a flap withdrew.
// SoakReport takes one sample per raise against a down peer, crash ->
// raise (flip() returns true for exactly those): a soak may be killed and
// resumed, so the engine checkpoints these samples as they occur, and a
// re-raise counts again.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/scenario.hpp"
#include "common/bytes.hpp"
#include "obs/record.hpp"
#include "runtime/network.hpp"

namespace rfd::cluster {

/// What an applied fault did, for the caller's own bookkeeping.
enum class FaultEffect : std::uint8_t {
  kIgnored,  // a no-op under the effectiveness rules: emit nothing
  kDown,     // crash / leave / exclude: the node is now truly down
  kUp,       // recover: a down node restarts with empty peer memory
  kJoined,   // join: a never-active id becomes active
  kOnset,    // a partition, storm, link block, slowdown or lie begins
  kRelief,   // heal, storm end, link up, slow end or lie end
};

class FaultState {
 public:
  /// Ids [0, initial_active) start active; the rest have never been.
  FaultState(int max_nodes, int initial_active);

  int max_nodes() const { return static_cast<int>(ever_active_.size()); }
  bool ever_active(NodeId j) const { return ever_active_[at(j)] != 0; }
  bool truly_active(NodeId j) const { return truth_active_[at(j)] != 0; }
  bool truly_down(NodeId j) const {
    return ever_active_[at(j)] != 0 && truth_active_[at(j)] == 0;
  }
  /// When `j` went down; -1 unless it is truly down.
  double down_since(NodeId j) const { return down_since_[at(j)]; }
  /// When `j`'s latest incarnation started (0 for the initially active,
  /// else its join or recover time), kept while it is down; -1 for an id
  /// never active.
  double up_since(NodeId j) const { return up_since_[at(j)]; }
  /// The truly active ids, ascending: the membership a restarted or
  /// joining process is seeded from.
  std::vector<NodeId> active_contacts() const;

  /// Applies `event` at sim time `now` and reports its effect. The ground
  /// truth is a replica: every caller applies every event. `subject` is
  /// the event's node when the caller owns it, else null (always null in
  /// a replay); only through it does a fault reach the process - a crash
  /// stops it, a recover or join restarts it with no peer memory, seeded
  /// from the live membership the way a provisioning system would, and a
  /// lie is anchored at the counter peers last believed.
  FaultEffect apply(const FaultEvent& event, double now,
                    ClusterNode* subject = nullptr);

  /// The counter node `i` advertises on a heartbeat whose honest counter
  /// is `own`: `own` itself, or while lying, the lie moved by its delta
  /// and clamped to [1, INT32_MAX] so it stays a plausible wire value.
  std::uint32_t advertise(NodeId i, std::int64_t own) {
    const std::size_t p = at(i);
    if (lying_[p] == 0) return static_cast<std::uint32_t>(own);
    lie_value_[p] = std::clamp(
        lie_value_[p] + lie_delta_[p], 1.0,
        static_cast<double>(std::numeric_limits<std::int32_t>::max()));
    return static_cast<std::uint32_t>(lie_value_[p]);
  }

  /// Checkpoint hooks (per node: ever, truth, down-since, lie state,
  /// up-since).
  /// restore returns false on a truncated or inconsistent state.
  void save(ByteWriter& w) const;
  bool restore(ByteReader& r);

 private:
  static std::size_t at(NodeId j) { return static_cast<std::size_t>(j); }

  std::vector<char> ever_active_;
  std::vector<char> truth_active_;
  std::vector<double> down_since_;
  std::vector<double> up_since_;
  std::vector<char> lying_;
  std::vector<double> lie_delta_;
  std::vector<double> lie_value_;
};

/// Whether `kind` acts on the network (partition, heal, storm, link,
/// slow) rather than on a node.
bool is_network_fault(FaultKind kind);

/// Applies a network-shaped fault to `net`; other kinds are a no-op.
void apply_network_fault(const FaultEvent& event, rt::Network& net);

class QosLedger {
 public:
  void set_trace(obs::RecordSink* trace) { trace_ = trace; }

  /// Books observer `i`'s verdict about victim `j` flipping to
  /// `suspected` at `now`, scored against the ground truth `down`, and
  /// emits the matching record. Returns true for a raise against a down
  /// victim: the soak's detection sample point.
  bool flip(NodeId i, NodeId j, bool suspected, bool down, double now) {
    if (suspected) {
      ++raises_;
      if (!down) ++false_suspicions_;
    } else {
      ++clears_;
    }
    if (trace_ != nullptr) {
      obs::Record r;
      r.type = suspected ? obs::RecordType::kSuspect : obs::RecordType::kClear;
      r.t = now;
      r.a = i;
      r.b = j;
      r.c = down ? 1 : 0;
      trace_->emit(r);
    }
    return suspected && down;
  }

  /// Books the mistake that ends at `now`: an observer's suspicion of
  /// `j`, raised at `since`, while the observer and `j` were both live.
  /// The caller checks that both were live just before `now`. A stretch
  /// of no length is none, so same-time faults book alike in any order.
  void end_mistake(const FaultState& truth, NodeId j, double since,
                   double now) {
    const double ms = now - std::max(since, truth.up_since(j));
    if (ms > 0.0) {
      ++mistakes_;
      mistake_us_ += std::llround(ms * 1000.0);
    }
  }

  std::int64_t raises() const { return raises_; }
  std::int64_t clears() const { return clears_; }
  std::int64_t false_suspicions() const { return false_suspicions_; }
  std::int64_t mistakes() const { return mistakes_; }
  /// The booked mistakes' summed length in whole microseconds: each is
  /// rounded before it is added, so the sum does not depend on the
  /// booking order, which the shard count and a restore both change.
  std::int64_t mistake_us() const { return mistake_us_; }

  void save(ByteWriter& w) const;
  bool restore(ByteReader& r);

 private:
  obs::RecordSink* trace_ = nullptr;
  std::int64_t raises_ = 0;
  std::int64_t clears_ = 0;
  std::int64_t false_suspicions_ = 0;
  std::int64_t mistakes_ = 0;
  std::int64_t mistake_us_ = 0;
};

/// An observer's cached verdict about one victim at the end of a run.
struct Standing {
  bool known = false;
  bool suspected = false;
  double since = -1.0;  // start of the standing suspicion
};

/// `observer`'s cached verdict about `j`.
inline Standing standing_of(const ClusterNode& observer, NodeId j) {
  return {observer.knows(j), observer.is_suspected(j),
          observer.suspect_since(j)};
}

struct StandingTally {
  /// Down victims a live observer knows of but does not suspect.
  std::int64_t missed = 0;
  /// Down victims a live observer never learned of. ClusterReport does
  /// not count these as missed; SoakReport does.
  std::int64_t unmet = 0;
};

/// The end-of-run pass over (live observer, down victim) pairs, victim
/// outer and observer inner - the order that fixes the detection samples'
/// accumulation. `standing_of(i, j)` returns a Standing; `sample(ms)`
/// receives crash -> standing-suspicion latencies.
template <typename StandingOf, typename Sample>
StandingTally standing_suspicions(const FaultState& truth,
                                  StandingOf&& standing_of, Sample&& sample) {
  StandingTally tally;
  for (NodeId j = 0; j < truth.max_nodes(); ++j) {
    if (!truth.truly_down(j)) continue;
    for (NodeId i = 0; i < truth.max_nodes(); ++i) {
      if (i == j || !truth.truly_active(i)) continue;
      const Standing s = standing_of(i, j);
      if (!s.known) {
        ++tally.unmet;
      } else if (s.suspected) {
        // A suspicion already standing at crash time detects "instantly"
        // from the abstraction's point of view.
        sample(std::max(0.0, s.since - truth.down_since(j)));
      } else {
        ++tally.missed;
      }
    }
  }
  return tally;
}

}  // namespace rfd::cluster
