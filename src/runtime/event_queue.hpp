// Continuous-time discrete-event core for the runtime layer.
//
// The abstract model of src/sim uses a logical tick per step; the runtime
// layer instead simulates wall-clock behaviour (heartbeat periods, network
// delays in milliseconds) to evaluate what real timeout-based detectors
// deliver. Events carry a deterministic tiebreak sequence number so runs
// are reproducible bit-for-bit.
//
// Throughput design (the hot path of every cluster-scale experiment):
//
//   * Events live in a slab with an intrusive free list. Each entry holds
//     a small-buffer-optimized InlineTask, so steady-state runs allocate
//     nothing per event - the old core paid one std::function heap
//     allocation per heartbeat, delivery and check tick.
//   * Near-future events (the overwhelming majority: periodic heartbeat
//     and check timers, millisecond network deliveries) are scheduled in
//     O(1) into a hierarchical timer wheel: kWheelLevels levels of
//     kWheelSlots slots, each level kWheelSlots times coarser than the
//     one below. Far-future events beyond the wheel range fall back to
//     the binary heap.
//   * Execution order is exactly (at, seq) - identical to the old pure
//     heap core. The wheel only controls *when* an event enters the
//     ready heap (any time before its slot's window becomes current),
//     never the order in which events run, so runs are bit-for-bit
//     reproducible across both representations.
//
// Events cannot be canceled: every slab slot has exactly one carrier (a
// wheel chain or a ready-heap entry) from schedule to dispatch, so no
// reference into the slab ever goes stale. (The cluster engine keeps
// detector deadlines in its own per-tick buckets - see
// cluster/engine.cpp.)
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "obs/profile.hpp"
#include "runtime/task.hpp"

namespace rfd::rt {

class EventQueue {
 public:
  using Action = InlineTask;

  /// `tick_ms` is the wheel granularity: events less than
  /// kWheelSlots * tick_ms ahead of the collected horizon schedule into
  /// the finest level. The default suits millisecond-scale networks with
  /// 100ms-scale heartbeat periods.
  explicit EventQueue(double tick_ms = 1.0);

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

  /// Attaches the observability profiler: when non-null, task dispatch in
  /// run_until is timed as obs::Phase::kDispatch (sampled; see
  /// obs/profile.hpp). Null (the default) costs one predictable branch
  /// per event.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  /// Runs events in time order until the queue drains or the next event
  /// lies beyond `t_end`; the clock finishes at min(t_end, last event).
  void run_until(double t_end);

  /// Runs events with `at` strictly before `t`, then advances the clock
  /// to `t` (clamped to now()). The sharded cluster engine uses this to
  /// splice externally-driven actions (scenario faults) between the
  /// events that precede them and the events at exactly their timestamp,
  /// matching the old single-queue ordering where construction-time fault
  /// events carried the lowest tiebreak sequence numbers.
  void run_before(double t);

  std::int64_t executed() const { return executed_; }

  /// Events currently pending.
  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffffu;
  static constexpr int kWheelBits = 8;
  static constexpr int kWheelSlots = 1 << kWheelBits;  // 256
  static constexpr int kWheelLevels = 3;               // 256^3 ticks span

  struct Event {
    double at = 0.0;
    std::int64_t seq = 0;
    InlineTask task;
    std::uint32_t next = kNullIndex;  // wheel chain / free list link
  };

  /// Lightweight heap entry; the task stays in the slab.
  struct Ref {
    double at;
    std::int64_t seq;
    std::uint32_t idx;
    bool operator>(const Ref& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  void run(double t_end, bool exclusive);
  std::uint32_t allocate(double at, Action action);
  void release(std::uint32_t idx);
  /// Files a slab event into the wheel, or into the ready heap when it
  /// is already inside the collected horizon or beyond the wheel range.
  void place(std::uint32_t idx);
  /// Tick index whose window contains `at` (floor, guarded against the
  /// division rounding up across a tick boundary).
  std::int64_t tick_for(double at) const;
  /// Moves the level-0 slot at the collected horizon into the ready
  /// heap and advances the horizon one tick, cascading coarser levels
  /// at window boundaries.
  void collect_slot();
  void cascade(int level);

  std::vector<Event> slab_;
  std::uint32_t free_head_ = kNullIndex;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ready_;
  std::uint32_t wheel_[kWheelLevels][kWheelSlots];
  std::int64_t wheel_count_ = 0;  // events currently filed in the wheel
  /// All events with tick < collected_tick_ are in the ready heap; the
  /// wheel only holds ticks >= collected_tick_.
  std::int64_t collected_tick_ = 0;
  double tick_ms_;

  obs::Profiler* profiler_ = nullptr;
  double now_ = 0.0;
  std::int64_t next_seq_ = 0;
  std::int64_t executed_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rfd::rt
