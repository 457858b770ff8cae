#include "sim/simulator.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace rfd::sim {

namespace {

/// Context implementation writing straight into the trace.
class SimContext final : public Context {
 public:
  SimContext(Simulator& sim, Trace& trace, ProcessId self, Tick now,
             const fd::FdValue& fd, EventId event)
      : sim_(&sim),
        trace_(&trace),
        self_(self),
        now_(now),
        fd_(&fd),
        event_(event) {}

  ProcessId self() const override { return self_; }
  ProcessId n() const override { return trace_->n(); }
  Tick now() const override { return now_; }
  const fd::FdValue& fd() const override { return *fd_; }

  void send_tagged(ProcessId dst, Bytes payload,
                   const ProcessSet& alive_tags) override {
    RFD_REQUIRE_MSG(dst >= 0 && dst < n(), "send to unknown process");
    Message& m = trace_->append_message(self_, dst, std::move(payload),
                                        alive_tags, event_, now_);
    const MessageId id = m.id;
    sim_->enqueue_message(id, dst);
  }

  void decide(InstanceId instance, Value v) override {
    trace_->record_decision(event_, instance, v);
  }

  void deliver(InstanceId instance, Value v) override {
    trace_->record_delivery(event_, instance, v);
  }

 private:
  Simulator* sim_;
  Trace* trace_;
  ProcessId self_;
  Tick now_;
  const fd::FdValue* fd_;
  EventId event_;
};

/// The first tick after `t` at which some process of `pattern` crashes,
/// or kNever.
Tick next_crash_after(const model::FailurePattern& pattern, Tick t) {
  Tick next = kNever;
  for (ProcessId p = 0; p < pattern.n(); ++p) {
    const Tick crash = pattern.crash_tick(p);
    if (crash > t) next = std::min(next, crash);
  }
  return next;
}

}  // namespace

Simulator::Simulator(const model::FailurePattern& pattern,
                     const fd::Oracle& oracle,
                     std::vector<std::unique_ptr<Automaton>> automata,
                     std::unique_ptr<Adversary> adversary, SimConfig config)
    : pattern_(&pattern),
      oracle_(&oracle),
      automata_(std::move(automata)),
      adversary_(std::move(adversary)),
      config_(std::move(config)),
      trace_(pattern, config_.limits),
      alive_(pattern.alive_at(0)),
      next_crash_(next_crash_after(pattern, 0)),
      pending_(static_cast<std::size_t>(pattern.n())),
      last_event_of_(static_cast<std::size_t>(pattern.n()), kNoEvent),
      last_progress_(static_cast<std::size_t>(pattern.n()), -1),
      started_(static_cast<std::size_t>(pattern.n()), false) {
  RFD_REQUIRE(static_cast<ProcessId>(automata_.size()) == pattern.n());
  RFD_REQUIRE(adversary_ != nullptr);
  RFD_REQUIRE(oracle.n() == pattern.n());
  for (const auto& a : automata_) {
    RFD_REQUIRE(a != nullptr);
  }
  RFD_REQUIRE(config_.limits.starvation_bound > 0);
  RFD_REQUIRE(config_.limits.delivery_bound > 0);
}

Automaton& Simulator::automaton(ProcessId p) {
  RFD_REQUIRE(p >= 0 && p < pattern_->n());
  return *automata_[static_cast<std::size_t>(p)];
}

void Simulator::enqueue_message(MessageId m, ProcessId dst) {
  pending_[static_cast<std::size_t>(dst)].push_back(m);
}

Tick Simulator::available_at(const Message& m) const {
  Tick at = m.sent_at + 1;
  for (const auto& block : config_.blocks) {
    const bool src_match = block.src == -1 || block.src == m.src;
    const bool dst_match = block.dst == -1 || block.dst == m.dst;
    if (src_match && dst_match) {
      at = std::max(at, block.until);
    }
  }
  return at;
}

void Simulator::step_once() {
  // F(t) changes only at crash ticks, so alive_ = alive_at(now_) is
  // recomputed only there.
  if (now_ >= next_crash_) {
    alive_ = pattern_->alive_at(now_);
    next_crash_ = next_crash_after(*pattern_, now_);
  }
  if (alive_.empty()) {
    ++now_;
    return;
  }

  // Candidate processes: alive and not paused. Paused / dead processes do
  // not accumulate starvation.
  ProcessSet candidates = alive_;
  for (const auto& pause : config_.pauses) {
    if (now_ >= pause.from && now_ < pause.until && alive_.contains(pause.p)) {
      candidates.erase(pause.p);
      last_progress_[static_cast<std::size_t>(pause.p)] = now_;
    }
  }
  if (candidates.empty()) {
    ++now_;
    return;
  }

  // Fairness forcing (run condition (4)): schedule the most starved process
  // once anyone exceeds the bound.
  ProcessId forced = -1;
  Tick worst = -1;
  candidates.for_each([&](ProcessId p) {
    const Tick starvation =
        now_ - std::max<Tick>(last_progress_[static_cast<std::size_t>(p)], 0);
    if (starvation >= config_.limits.starvation_bound && starvation > worst) {
      worst = starvation;
      forced = p;
    }
  });

  const ProcessId p =
      forced >= 0
          ? forced
          : adversary_->pick_process(candidates);
  RFD_REQUIRE_MSG(candidates.contains(p), "adversary picked a bad process");

  // Deliverable messages and delivery forcing (run condition (5)).
  deliverable_.clear();
  MessageId forced_msg = kNoMessage;
  Tick oldest_avail = kNever;
  for (MessageId m : pending_[static_cast<std::size_t>(p)]) {
    const Tick avail = available_at(trace_.message(m));
    if (avail > now_) continue;
    deliverable_.push_back(m);
    if (avail < oldest_avail) {
      oldest_avail = avail;
      forced_msg = m;
    }
  }
  MessageId chosen = kNoMessage;
  if (forced_msg != kNoMessage &&
      now_ - oldest_avail >= config_.limits.delivery_bound) {
    chosen = forced_msg;
  } else {
    chosen = adversary_->pick_message(p, deliverable_);
    if (chosen != kNoMessage) {
      RFD_REQUIRE_MSG(std::find(deliverable_.begin(), deliverable_.end(),
                                chosen) != deliverable_.end(),
                      "adversary picked an undeliverable message");
    }
  }

  // Query the detector module (action 2 of a step).
  fd::FdValue d = oracle_->query(p, now_);

  const bool first = !started_[static_cast<std::size_t>(p)];
  Event& event =
      trace_.append_event(p, now_, chosen, std::move(d),
                          last_event_of_[static_cast<std::size_t>(p)], first);
  const EventId event_id = event.id;

  // Copy the incoming payload before running the automaton: sends during
  // the step may grow the message table and invalidate references.
  ProcessSet tags(0);
  ProcessId src = -1;
  if (chosen != kNoMessage) {
    auto it = std::find(pending_[static_cast<std::size_t>(p)].begin(),
                        pending_[static_cast<std::size_t>(p)].end(), chosen);
    RFD_REQUIRE(it != pending_[static_cast<std::size_t>(p)].end());
    pending_[static_cast<std::size_t>(p)].erase(it);
    trace_.mark_received(chosen, event_id);
    const Message& m = trace_.message(chosen);
    payload_ = m.payload;
    tags = m.alive_tags;
    src = m.src;
  }

  SimContext ctx(*this, trace_, p, now_, trace_.event(event_id).fd_value,
                 event_id);
  if (first) {
    started_[static_cast<std::size_t>(p)] = true;
    automata_[static_cast<std::size_t>(p)]->on_start(ctx);
    // A message picked for the very first step is still consumed: treat it
    // as received by the start step, consistent with the one-step model.
    if (chosen != kNoMessage) {
      const Incoming incoming{src, payload_, tags, chosen};
      automata_[static_cast<std::size_t>(p)]->on_step(ctx, &incoming);
    }
  } else if (chosen != kNoMessage) {
    const Incoming incoming{src, payload_, tags, chosen};
    automata_[static_cast<std::size_t>(p)]->on_step(ctx, &incoming);
  } else {
    automata_[static_cast<std::size_t>(p)]->on_step(ctx, nullptr);
  }

  last_event_of_[static_cast<std::size_t>(p)] = event_id;
  last_progress_[static_cast<std::size_t>(p)] = now_;
  ++now_;
}

void Simulator::run_for(Tick ticks) {
  RFD_REQUIRE(ticks >= 0);
  const Tick deadline = now_ + ticks;
  trace_.reserve_events(ticks);
  while (now_ < deadline) {
    step_once();
  }
}

bool Simulator::run_until(const std::function<bool(const Trace&)>& pred,
                          Tick deadline) {
  if (deadline > now_) trace_.reserve_events(deadline - now_);
  while (now_ < deadline) {
    if (pred(trace_)) return true;
    step_once();
  }
  return pred(trace_);
}

}  // namespace rfd::sim
