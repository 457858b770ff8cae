// Traces: recorded runs R = <F, H, C, S, T> (Section 2.4).
//
// The trace stores the schedule S (events), the time list T (event times),
// the sampled portion of the detector history H (one FdValue per step), and
// the messages exchanged, with enough structure to answer the two questions
// the paper's proofs revolve around:
//   - causal chains: which events are in the causal past of a decision
//     event, and which processes contributed messages to it (Lemma 4.1);
//   - run validity: do the recorded steps satisfy conditions (1)-(5) of the
//     run definition on this bounded window.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fd/oracle.hpp"
#include "fd/properties.hpp"
#include "model/failure_pattern.hpp"
#include "sim/adversary.hpp"
#include "sim/event.hpp"
#include "sim/message.hpp"

namespace rfd::sim {

struct DecisionRef {
  EventId event;
  ProcessId process;
  Tick time;
  InstanceId instance;
  Value value;
};

struct DeliveryRef {
  EventId event;
  ProcessId process;
  Tick time;
  InstanceId instance;
  Value value;
};

class Trace {
 public:
  Trace(model::FailurePattern pattern, AdversaryLimits limits);

  const model::FailurePattern& pattern() const { return pattern_; }
  const AdversaryLimits& limits() const { return limits_; }
  ProcessId n() const { return pattern_.n(); }

  // --- population (used by the Simulator) ---------------------------------
  Event& append_event(ProcessId process, Tick time, MessageId received,
                      fd::FdValue fd_value, EventId prev_same_process,
                      bool is_start);
  /// Makes room for `more` further events, so that appending them never
  /// moves the events already recorded.
  void reserve_events(std::int64_t more);
  Message& append_message(ProcessId src, ProcessId dst, Bytes payload,
                          ProcessSet alive_tags, EventId send_event,
                          Tick sent_at);
  void mark_received(MessageId m, EventId by);

  // --- plain access --------------------------------------------------------
  std::int64_t num_events() const {
    return static_cast<std::int64_t>(events_.size());
  }
  std::int64_t num_messages() const {
    return static_cast<std::int64_t>(messages_.size());
  }
  const Event& event(EventId e) const;
  const Message& message(MessageId m) const;
  /// Event that received message m, or kNoEvent while it is buffered.
  EventId received_by(MessageId m) const;
  /// Number of steps process p has taken.
  std::int64_t steps_of(ProcessId p) const;
  /// The last tick at which any event happened (or -1 for empty traces).
  Tick last_event_tick() const;

  // --- decisions & deliveries ----------------------------------------------
  const std::vector<DecisionRef>& decisions() const { return decisions_; }
  const std::vector<DeliveryRef>& deliveries() const { return deliveries_; }
  std::vector<DecisionRef> decisions_of_instance(InstanceId instance) const;
  std::vector<DeliveryRef> deliveries_of_instance(InstanceId instance) const;
  /// First decision of p in `instance`, if any.
  std::optional<DecisionRef> decision_of(ProcessId p,
                                         InstanceId instance) const;
  std::optional<DeliveryRef> delivery_of(ProcessId p,
                                         InstanceId instance) const;

  // --- causality (Lemma 4.1 machinery) -------------------------------------
  /// All events in the causal past of e (inclusive), via process order and
  /// message edges.
  std::vector<EventId> causal_past(EventId e) const;
  /// Processes that sent a message lying in the causal past of e. The
  /// paper's totality notion asks whether this covers every process alive
  /// at e's time (the deciding process itself counts trivially).
  ProcessSet causal_message_senders(EventId e) const;

  // --- run validity (Section 2.4, bounded window) --------------------------
  /// Checks conditions (1)-(3): strictly increasing times, steps only by
  /// processes not crashed at their step time, received messages genuinely
  /// buffered for the receiver, and d = H(p, T[k]) for the given oracle.
  /// Also checks the bounded-window forms of (4) starvation and (5)
  /// delivery using the recorded adversary limits.
  fd::CheckResult validate(const fd::Oracle& oracle) const;

  std::string summary() const;

  // Internal plumbing for the simulator's context (not part of the public
  // API): records a decide()/deliver() made by event e.
  void record_decision(EventId e, InstanceId instance, Value v);
  void record_delivery(EventId e, InstanceId instance, Value v);

 private:
  model::FailurePattern pattern_;
  AdversaryLimits limits_;
  std::vector<Event> events_;
  std::vector<Message> messages_;
  std::vector<EventId> received_by_;
  std::vector<std::int64_t> steps_of_;
  std::vector<DecisionRef> decisions_;
  std::vector<DeliveryRef> deliveries_;
};

}  // namespace rfd::sim
