// Continuous-time discrete-event queue for the runtime layer's
// wall-clock experiments: E8's membership emulation, E9's QoS loop and
// E12b's synthetic timer workload.
//
// The abstract model of src/sim uses a logical tick per step; the runtime
// layer instead simulates wall-clock behaviour (heartbeat periods, network
// delays in milliseconds) to evaluate what real timeout-based detectors
// deliver. The queue is a binary heap of std::function ordered by
// (at, seq): each event carries the sequence number of its scheduling,
// so same-instant events run in FIFO order and runs are reproducible
// bit-for-bit. Events cannot be canceled. The cluster engine does not
// use this queue: its only events are heartbeat pumps, which it keeps
// in a per-shard rotation (see cluster/engine.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace rfd::rt {

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute time `at`. Times in the past (e.g.
  /// a negative delay from float drift) are clamped to now(): the action
  /// runs at the current clock, after already-pending events at now(),
  /// never silently before it.
  void schedule(double at, Action action);

  /// Schedules `action` `delay` after now().
  void schedule_in(double delay, Action action) {
    schedule(now_ + delay, std::move(action));
  }

  double now() const { return now_; }

  /// Runs events in (at, seq) order until the queue drains or the next
  /// event lies beyond `t_end`; the clock finishes at t_end.
  void run_until(double t_end);

  std::int64_t executed() const { return executed_; }

  /// Events currently pending.
  std::size_t size() const { return heap_.size(); }

 private:
  struct Event {
    double at;
    std::int64_t seq;
    Action action;
  };

  std::vector<Event> heap_;
  double now_ = 0.0;
  std::int64_t next_seq_ = 0;
  std::int64_t executed_ = 0;
};

}  // namespace rfd::rt
