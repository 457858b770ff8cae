// Adversaries: everything in a run that the model leaves unspecified.
//
// A run of an algorithm (Section 2.4) fixes a failure pattern and a
// detector history, but the schedule - which process steps when, and which
// buffered message (or the null message) it receives - is chosen
// nondeterministically subject to two run conditions:
//   (4) every correct process takes an infinite number of steps;
//   (5) every message sent to a correct process is eventually received.
//
// The Adversary makes those choices. The simulator enforces (4) and (5) on
// bounded windows through the starvation and delivery bounds below: when a
// live process or an old message exceeds its bound the adversary's hand is
// forced. Everything inside the bounds is genuinely adversarial.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/process_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace rfd::sim {

/// Temporarily forbids delivering messages src -> dst before tick `until`
/// (crafted runs: "delay all messages from p_j past the decision").
struct ChannelBlock {
  ProcessId src = -1;  // -1 matches any source
  ProcessId dst = -1;  // -1 matches any destination
  Tick until = 0;
};

/// Forbids scheduling process `p` during [from, until) (crafted runs:
/// "p takes no step until time t"). Fairness forcing skips paused
/// processes.
struct StepPause {
  ProcessId p = -1;
  Tick from = 0;
  Tick until = 0;
};

struct AdversaryLimits {
  /// A live, unpaused process never goes more than this many ticks without
  /// a step (bounded-window form of run condition (4)).
  Tick starvation_bound = 64;
  /// An unblocked message to a live process is received at most this many
  /// ticks after it was sent (bounded-window form of run condition (5)).
  Tick delivery_bound = 64;
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Chooses which of the candidate processes steps at this tick.
  /// `candidates` is never empty; the simulator has already removed crashed
  /// and paused processes and applied the starvation bound. Its universe
  /// is the run's n.
  virtual ProcessId pick_process(const ProcessSet& candidates) = 0;

  /// Chooses the message `p` receives: one of `deliverable` (ids of
  /// unblocked buffered messages) or kNoMessage for the null message. The
  /// simulator overrides the choice when the delivery bound forces the
  /// oldest message.
  virtual MessageId pick_message(ProcessId p,
                                 const std::vector<MessageId>& deliverable) = 0;
};

/// Seeded adversary: uniform process choice, and for messages either the
/// null message (with probability lambda_prob) or a uniformly chosen
/// deliverable message.
class RandomAdversary final : public Adversary {
 public:
  explicit RandomAdversary(std::uint64_t seed, double lambda_prob = 0.15);

  ProcessId pick_process(const ProcessSet& candidates) override;
  MessageId pick_message(ProcessId p,
                         const std::vector<MessageId>& deliverable) override;

 private:
  Rng rng_;
  double lambda_prob_;
};

/// Deterministic baseline: processes step in id order; the oldest
/// deliverable message is always received. Useful for readable example
/// traces and exact-replay tests.
class RoundRobinAdversary final : public Adversary {
 public:
  RoundRobinAdversary() = default;

  ProcessId pick_process(const ProcessSet& candidates) override;
  MessageId pick_message(ProcessId p,
                         const std::vector<MessageId>& deliverable) override;

 private:
  ProcessId next_ = 0;
};

}  // namespace rfd::sim
