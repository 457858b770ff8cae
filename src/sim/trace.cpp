#include "sim/trace.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace rfd::sim {

Trace::Trace(model::FailurePattern pattern, AdversaryLimits limits)
    : pattern_(std::move(pattern)),
      limits_(limits),
      steps_of_(static_cast<std::size_t>(pattern_.n()), 0) {}

Event& Trace::append_event(ProcessId process, Tick time, MessageId received,
                           fd::FdValue fd_value, EventId prev_same_process,
                           bool is_start) {
  Event e;
  e.id = static_cast<EventId>(events_.size());
  e.process = process;
  e.time = time;
  e.received = received;
  e.fd_value = std::move(fd_value);
  e.prev_same_process = prev_same_process;
  e.is_start = is_start;
  events_.push_back(std::move(e));
  ++steps_of_[static_cast<std::size_t>(process)];
  return events_.back();
}

void Trace::reserve_events(std::int64_t more) {
  const auto needed = events_.size() + static_cast<std::size_t>(more);
  if (needed > events_.capacity()) {
    events_.reserve(std::max(needed, 2 * events_.capacity()));
  }
}

Message& Trace::append_message(ProcessId src, ProcessId dst, Bytes payload,
                               ProcessSet alive_tags, EventId send_event,
                               Tick sent_at) {
  Message m;
  m.id = static_cast<MessageId>(messages_.size());
  m.src = src;
  m.dst = dst;
  m.payload = std::move(payload);
  m.alive_tags = std::move(alive_tags);
  m.send_event = send_event;
  m.sent_at = sent_at;
  messages_.push_back(std::move(m));
  received_by_.push_back(kNoEvent);
  return messages_.back();
}

void Trace::mark_received(MessageId m, EventId by) {
  RFD_REQUIRE(m >= 0 && m < num_messages());
  RFD_REQUIRE_MSG(received_by_[static_cast<std::size_t>(m)] == kNoEvent,
                  "message received twice");
  received_by_[static_cast<std::size_t>(m)] = by;
}

const Event& Trace::event(EventId e) const {
  RFD_REQUIRE(e >= 0 && e < num_events());
  return events_[static_cast<std::size_t>(e)];
}

const Message& Trace::message(MessageId m) const {
  RFD_REQUIRE(m >= 0 && m < num_messages());
  return messages_[static_cast<std::size_t>(m)];
}

EventId Trace::received_by(MessageId m) const {
  RFD_REQUIRE(m >= 0 && m < num_messages());
  return received_by_[static_cast<std::size_t>(m)];
}

std::int64_t Trace::steps_of(ProcessId p) const {
  RFD_REQUIRE(p >= 0 && p < n());
  return steps_of_[static_cast<std::size_t>(p)];
}

Tick Trace::last_event_tick() const {
  return events_.empty() ? -1 : events_.back().time;
}

std::vector<DecisionRef> Trace::decisions_of_instance(
    InstanceId instance) const {
  std::vector<DecisionRef> out;
  for (const auto& d : decisions_) {
    if (d.instance == instance) out.push_back(d);
  }
  return out;
}

std::vector<DeliveryRef> Trace::deliveries_of_instance(
    InstanceId instance) const {
  std::vector<DeliveryRef> out;
  for (const auto& d : deliveries_) {
    if (d.instance == instance) out.push_back(d);
  }
  return out;
}

std::optional<DecisionRef> Trace::decision_of(ProcessId p,
                                              InstanceId instance) const {
  for (const auto& d : decisions_) {
    if (d.process == p && d.instance == instance) return d;
  }
  return std::nullopt;
}

std::optional<DeliveryRef> Trace::delivery_of(ProcessId p,
                                              InstanceId instance) const {
  for (const auto& d : deliveries_) {
    if (d.process == p && d.instance == instance) return d;
  }
  return std::nullopt;
}

std::vector<EventId> Trace::causal_past(EventId e) const {
  RFD_REQUIRE(e >= 0 && e < num_events());
  std::vector<bool> seen(events_.size(), false);
  std::vector<EventId> stack{e};
  std::vector<EventId> out;
  seen[static_cast<std::size_t>(e)] = true;
  while (!stack.empty()) {
    const EventId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const Event& ev = events_[static_cast<std::size_t>(cur)];
    auto push = [&](EventId parent) {
      if (parent == kNoEvent) return;
      if (!seen[static_cast<std::size_t>(parent)]) {
        seen[static_cast<std::size_t>(parent)] = true;
        stack.push_back(parent);
      }
    };
    push(ev.prev_same_process);
    if (ev.received != kNoMessage) {
      push(message(ev.received).send_event);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

ProcessSet Trace::causal_message_senders(EventId e) const {
  ProcessSet senders(n());
  for (EventId id : causal_past(e)) {
    const Event& ev = events_[static_cast<std::size_t>(id)];
    if (ev.received != kNoMessage) {
      senders.insert(message(ev.received).src);
    }
    // Sent messages whose send event lies in the causal past only matter if
    // they were *received* inside the chain, which the branch above already
    // covers; receiving is what injects information into the chain.
  }
  return senders;
}

void Trace::record_decision(EventId e, InstanceId instance, Value v) {
  const Event& ev = events_[static_cast<std::size_t>(e)];
  decisions_.push_back({e, ev.process, ev.time, instance, v});
}

void Trace::record_delivery(EventId e, InstanceId instance, Value v) {
  const Event& ev = events_[static_cast<std::size_t>(e)];
  deliveries_.push_back({e, ev.process, ev.time, instance, v});
}

fd::CheckResult Trace::validate(const fd::Oracle& oracle) const {
  Tick prev_time = -1;
  std::vector<EventId> last_event_of(static_cast<std::size_t>(n()), kNoEvent);
  for (const Event& e : events_) {
    // (T) strictly increasing times.
    if (e.time <= prev_time) {
      return fd::CheckResult::fail("times not strictly increasing at event " +
                                   std::to_string(e.id));
    }
    prev_time = e.time;
    // (3a) steps only by live processes: p not in F(T[k]).
    if (!pattern_.is_alive_at(e.process, e.time)) {
      return fd::CheckResult::fail("crashed process p" +
                                   std::to_string(e.process) + " stepped at " +
                                   std::to_string(e.time));
    }
    // (3b) d = H(p, T[k]).
    if (oracle.query(e.process, e.time) != e.fd_value) {
      return fd::CheckResult::fail("event " + std::to_string(e.id) +
                                   " saw a detector value outside H");
    }
    // (2) applicability: the received message was buffered for e.process.
    if (e.received != kNoMessage) {
      const Message& m = message(e.received);
      if (m.dst != e.process) {
        return fd::CheckResult::fail("message delivered to wrong process");
      }
      if (m.sent_at >= e.time) {
        return fd::CheckResult::fail("message received before it was sent");
      }
      if (received_by(e.received) != e.id) {
        return fd::CheckResult::fail("receive bookkeeping corrupt");
      }
    }
    if (e.prev_same_process !=
        last_event_of[static_cast<std::size_t>(e.process)]) {
      return fd::CheckResult::fail("process-order chain corrupt");
    }
    last_event_of[static_cast<std::size_t>(e.process)] = e.id;
  }

  // (4) bounded starvation: gaps between consecutive steps of a correct
  // process never exceed the recorded bound. Pauses show up as configured
  // exceptions, so traces produced with pauses are validated by their
  // effective bound (callers pass the right limits when pausing).
  const Tick horizon = last_event_tick();
  const ProcessSet correct = pattern_.correct();
  std::vector<Tick> last_step(static_cast<std::size_t>(n()), -1);
  for (const Event& e : events_) {
    last_step[static_cast<std::size_t>(e.process)] = e.time;
  }
  bool starved = false;
  correct.for_each([&](ProcessId p) {
    if (horizon - last_step[static_cast<std::size_t>(p)] >
        limits_.starvation_bound * 2) {
      starved = true;
    }
  });
  if (starved) {
    return fd::CheckResult::fail("a correct process stopped stepping");
  }

  // (5) bounded delivery: messages to correct processes are received within
  // the bound (messages sent near the window's end are exempt).
  for (const Message& m : messages_) {
    if (!correct.contains(m.dst)) continue;
    if (received_by(m.id) != kNoEvent) continue;
    if (horizon - m.sent_at > limits_.delivery_bound * 2) {
      return fd::CheckResult::fail(
          "message " + std::to_string(m.id) + " to correct p" +
          std::to_string(m.dst) + " still undelivered after the bound");
    }
  }
  return fd::CheckResult::pass();
}

std::string Trace::summary() const {
  std::string out = "trace{events=" + std::to_string(num_events()) +
                    " messages=" + std::to_string(num_messages()) +
                    " decisions=" + std::to_string(decisions_.size()) +
                    " deliveries=" + std::to_string(deliveries_.size()) + "}";
  return out;
}

}  // namespace rfd::sim
