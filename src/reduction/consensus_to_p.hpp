// T(D->P): emulating a Perfect failure detector from any total consensus
// algorithm (Section 4.3, Lemma 4.2).
//
// The transformation runs an infinite sequence of consensus instances
// (bounded here by max_instances) with three additions:
//   1. whenever p_i sends a message it attaches [p_i is alive];
//   2. a receiver extracts the tags and attaches them to every event it
//      executes as a consequence (we accumulate them per instance);
//   3. whenever p_j executes a decision event, it adds to output(P)_j
//      every process whose tag is NOT attached to the decision.
//
// Because the underlying algorithm is total (Lemma 4.1), a missing tag
// means the process had crashed by decision time - strong accuracy - and
// a crashed process stops tagging, so later instances decide without it -
// strong completeness. The emulated variable output(P)_j is exposed both
// as a live suspect set (usable as a detector by stacked algorithms, see
// EmulatedFdStack) and as a timeline for offline QoS analysis.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/composition.hpp"

namespace rfd::red {

class ConsensusToP final : public sim::Automaton {
 public:
  /// Builds the consensus automaton for instance k; the default runs the
  /// S-based Chandra-Toueg algorithm with a per-process proposal.
  using ConsensusFactory = std::function<std::unique_ptr<sim::Automaton>(
      InstanceId k, ProcessId self)>;

  /// `min_instance_gap` throttles the instance sequence: instance k+1 is
  /// not driven locally before `min_instance_gap` ticks have passed since
  /// instance k was started. The paper's sequence is infinite; a bounded
  /// experiment needs the instances to *span* the window in which crashes
  /// happen, otherwise completeness has no instance left to witness it.
  ConsensusToP(ProcessId n, ConsensusFactory factory, InstanceId max_instances,
               Tick min_instance_gap = 0);

  /// Convenience: T(D->P) over the S-based consensus algorithm for a
  /// system of n processes.
  static ConsensusFactory ct_strong_factory(ProcessId n);

  void on_start(sim::Context& ctx) override;
  void on_step(sim::Context& ctx, const sim::Incoming* m) override;

  /// The emulated output(P) at this process, as of now.
  const ProcessSet& output() const { return output_; }

  /// (tick, process) pairs, in suspicion order.
  const std::vector<std::pair<Tick, ProcessId>>& suspicion_timeline() const {
    return timeline_;
  }

  /// Instances this process has seen decided (locally driven or joined).
  InstanceId instances_decided() const {
    InstanceId count = 0;
    for (const auto& [k, child] : children_) {
      if (child.decided) ++count;
    }
    return count;
  }

 private:
  struct Child {
    std::unique_ptr<sim::Automaton> automaton;
    ProcessSet known_alive;  // accumulated [p is alive] tags, self included
    bool decided = false;
  };

  /// The context a child instance runs under: frames sends with the
  /// instance tag, attaches the accumulated alive tags, reports decisions
  /// back to the wrapper.
  class ChildContext;

  Child& ensure_child(sim::Context& ctx, InstanceId k);
  void on_child_decides(sim::Context& ctx, InstanceId k, Value v);
  void maybe_advance(sim::Context& ctx);

  ProcessId n_;
  ConsensusFactory factory_;
  InstanceId max_instances_;
  Tick min_instance_gap_;

  std::map<InstanceId, Child> children_;
  InstanceId local_k_ = 0;  // instance this process currently drives
  Tick last_instance_start_ = 0;
  ProcessSet output_;
  std::vector<std::pair<Tick, ProcessId>> timeline_;
};

}  // namespace rfd::red
