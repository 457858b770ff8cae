// The deterministic step-level simulator of the FLP + failure detector
// model (Sections 2.3-2.4).
//
// One step happens per global tick: the adversary picks a live process and
// a buffered message (or the null message) for it, the simulator queries
// the process's failure detector module, and the automaton performs its
// state transition, possibly sending messages and deciding/delivering
// values. The whole run is a pure function of (pattern, oracle seed,
// adversary, config), and everything that happened is recorded in a Trace.
//
// The model's run conditions are enforced here:
//   (4) fairness - a live process that has not stepped for
//       `limits.starvation_bound` ticks is scheduled by force;
//   (5) reliable channels - a buffered unblocked message older than
//       `limits.delivery_bound` ticks is delivered by force.
// Crafted scenarios postpone (but never cancel) steps and deliveries
// through StepPause / ChannelBlock windows, mirroring how the paper's
// proofs "delay all messages from p_j until after time t".
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "fd/oracle.hpp"
#include "model/failure_pattern.hpp"
#include "sim/adversary.hpp"
#include "sim/automaton.hpp"
#include "sim/trace.hpp"

namespace rfd::sim {

struct SimConfig {
  AdversaryLimits limits;
  std::vector<ChannelBlock> blocks;
  std::vector<StepPause> pauses;
};

class Simulator final {
 public:
  /// `automata` must contain exactly pattern.n() entries (one per process).
  /// The oracle must have been built for the same pattern.
  Simulator(const model::FailurePattern& pattern, const fd::Oracle& oracle,
            std::vector<std::unique_ptr<Automaton>> automata,
            std::unique_ptr<Adversary> adversary, SimConfig config = {});

  /// Advances the clock by `ticks` (one step - or one idle tick when every
  /// live process is paused - per tick).
  void run_for(Tick ticks);

  /// Steps until `pred(trace())` holds or the global clock reaches
  /// `deadline`. Returns whether the predicate held.
  bool run_until(const std::function<bool(const Trace&)>& pred,
                 Tick deadline);

  const Trace& trace() const { return trace_; }
  Automaton& automaton(ProcessId p);

  // Internal plumbing for SimContext (not part of the public API).
  void enqueue_message(MessageId m, ProcessId dst);

 private:
  void step_once();
  /// First tick at which m may be received (send tick + 1, pushed back by
  /// matching channel blocks).
  Tick available_at(const Message& m) const;

  const model::FailurePattern* pattern_;
  const fd::Oracle* oracle_;
  std::vector<std::unique_ptr<Automaton>> automata_;
  std::unique_ptr<Adversary> adversary_;
  SimConfig config_;

  Trace trace_;
  Tick now_ = 0;
  ProcessSet alive_;  // F(now_)'s complement
  Tick next_crash_;   // the tick at which alive_ next changes, or kNever
  std::vector<std::vector<MessageId>> pending_;  // per destination, FIFO
  std::vector<EventId> last_event_of_;
  std::vector<Tick> last_progress_;  // for starvation accounting
  std::vector<bool> started_;
  // Per-step scratch, kept so a step with a waiting message allocates
  // nothing once they have grown.
  std::vector<MessageId> deliverable_;
  Bytes payload_;
};

}  // namespace rfd::sim
